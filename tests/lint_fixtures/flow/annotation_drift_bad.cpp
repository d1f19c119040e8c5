// rds_analyze fixture: trips guarded-member once.  `value_` is accessed
// under mu_ on every path but declares no RDS_GUARDED_BY, so Clang's
// thread-safety analysis cannot hold the next access to that lock.
// `stamp_` declares the lock it is accessed under and passes; naming the
// wrong lock there is Clang's error at each access, not this rule's.

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
  int value_ = 0;
  long stamp_ RDS_GUARDED_BY(io_mu_) = 0;
};

}  // namespace fix
