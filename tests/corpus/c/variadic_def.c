// variadic_def.c — the defining unit of the variadic link-error pair: a
// printf-style logger whose format must be untainted. Its signature ends
// in an ellipsis, which the link error renders exactly once.
int logmsg(char* untainted fmt, ...) {
  return 0;
}
