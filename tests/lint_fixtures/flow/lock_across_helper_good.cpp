// rds_analyze fixture twin: clean.  The mutex protects only the member
// copy; the blocking helper runs after the guard scope closes.

namespace fix {

class Pool {
 public:
  void commit() {
    {
      const MutexLock lock(mu_);
      staged_ = pending_;
    }
    flush_data();
  }

 private:
  void flush_data() {
    fsync(fd_);
  }

  Mutex mu_;
  int staged_ RDS_GUARDED_BY(mu_) = 0;
  int pending_ RDS_GUARDED_BY(mu_) = 0;
  const int fd_ = -1;
};

}  // namespace fix
