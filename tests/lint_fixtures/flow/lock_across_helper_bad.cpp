// rds_analyze fixture: trips lock-held-across-call once, interprocedurally.
// commit() holds the mutex across a call into a helper whose own body
// blocks (fsync) without expecting any lock -- the pairing is created at
// the call site, so the finding lands there.

namespace fix {

class Pool {
 public:
  void commit() {
    const MutexLock lock(mu_);
    staged_ = pending_;
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
