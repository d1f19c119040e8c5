// rds_analyze fixture: trips lock-held-across-call once, through a
// recursive SCC.  pump() and drain() call each other; drain() fsyncs, so
// pump's summary must converge to "blocks" through the cycle before the
// lock-holding caller can be flagged.

namespace fix {

class Drainer {
 public:
  void commit() {
    const MutexLock lock(mu_);
    pump(3);
  }

 private:
  void pump(int n) {
    if (n > 0) drain(n - 1);
  }

  void drain(int n) {
    fsync(fd_);
    if (n > 0) pump(n - 1);
  }

  Mutex mu_;
  const int fd_ = -1;
};

}  // namespace fix
