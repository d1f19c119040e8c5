// rds_analyze fixture: the silent twin of annotation_drift_bad.cpp.
// Every guarded member declares the lock its access paths actually
// hold, so Clang's thread-safety analysis checks each access.

namespace fix {

class Config {
 public:
  void set(int v) {
    const MutexLock lock(mu_);
    value_ = v;
  }

  int get() {
    const MutexLock lock(mu_);
    return value_;
  }

  void tick() {
    const MutexLock lock(io_mu_);
    stamp_ = stamp_ + 1;
  }

 private:
  Mutex mu_;
  Mutex io_mu_;
  int value_ RDS_GUARDED_BY(mu_) = 0;
  long stamp_ RDS_GUARDED_BY(io_mu_) = 0;
};

}  // namespace fix
