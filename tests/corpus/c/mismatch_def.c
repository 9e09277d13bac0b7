// mismatch_def.c — the defining unit of the link-error pair. It plants
// one derivation failure that would warn if checked, but the program
// never links (mismatch_use.c sees another signature for scale), so a
// check must report the link error and withhold every checker warning.
int pos scale(int pos x) {
  int pos r = x * 3;
  int pos flipped = 0 - r;
  return r * flipped;
}
