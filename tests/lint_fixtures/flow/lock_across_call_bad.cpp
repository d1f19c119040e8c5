// rds_analyze fixture: trips lock-held-across-call twice, both directly:
// an fsync and a sleep inside the critical section.  Every waiter on the
// mutex stalls behind the I/O.

namespace fix {

class Syncer {
 public:
  void flush() {
    const MutexLock lock(mu_);
    dirty_ = false;
    fsync(fd_);
  }

  void pace() {
    const MutexLock lock(mu_);
    std::this_thread::sleep_for(backoff_);
  }

 private:
  Mutex mu_;
  bool dirty_ RDS_GUARDED_BY(mu_) = false;
  const int fd_ = -1;
  const Duration backoff_;
};

}  // namespace fix
