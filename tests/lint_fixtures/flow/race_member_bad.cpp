// rds_analyze fixture: trips guarded-member twice.  In a class that owns
// a mutex, `count_` is written by bump() with no lock while snapshot()
// reads it under the class mutex -- a race Clang cannot see, because
// nothing declares what guards the member -- and `limits_` is a mutable
// pointer to const data, not a const member.

namespace fix {

class Ledger {
 public:
  void bump() { count_ = count_ + 1; }

  long snapshot() {
    const MutexLock lock(mu_);
    total_ = total_ + count_;
    return total_;
  }

 private:
  Mutex mu_;
  long count_ = 0;
  long total_ RDS_GUARDED_BY(mu_) = 0;
  const Limits* limits_ = nullptr;
};

}  // namespace fix
