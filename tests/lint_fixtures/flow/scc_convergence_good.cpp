// rds_analyze fixture twin: clean.  The same mutually recursive pair is
// fine to call once the mutex is released.

namespace fix {

class Drainer {
 public:
  void commit() {
    {
      const MutexLock lock(mu_);
      sealed_ = true;
    }
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
  bool sealed_ RDS_GUARDED_BY(mu_) = false;
  const int fd_ = -1;
};

}  // namespace fix
