// rds_analyze fixture twin: clean.  State changes happen under the
// mutex; the blocking fsync runs after the guard scope closes.

namespace fix {

class Syncer {
 public:
  void flush() {
    {
      const MutexLock lock(mu_);
      dirty_ = false;
    }
    fsync(fd_);
  }

 private:
  Mutex mu_;
  bool dirty_ RDS_GUARDED_BY(mu_) = false;
  const int fd_ = -1;
};

}  // namespace fix
