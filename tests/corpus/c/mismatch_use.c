// mismatch_use.c — the calling unit of the link-error pair: its
// prototype of scale disagrees with mismatch_def.c's definition on the
// parameter's qualifier (neg vs pos), which is a link error.
int pos scale(int neg x);

int main() {
  int neg m = -2;
  int pos v = scale(m);
  printf("%d\n", v);
  return 0;
}
