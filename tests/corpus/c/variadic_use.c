// variadic_use.c — the calling unit of the variadic link-error pair: its
// prototype of logmsg drops the untainted qualifier on the format, which
// is a link error.
int logmsg(char* fmt, ...);

int main() {
  logmsg("%d\n", 1);
  return 0;
}
