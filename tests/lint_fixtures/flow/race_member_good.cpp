// rds_analyze fixture: the silent twin of race_member_bad.cpp.  Every
// member of a mutex-owning class says how it is shared: guarded by a
// named lock, atomic, const (a quota set once at construction, a const
// pointer, a reference), static, an RcuCell, or a sync primitive.  A
// class without a mutex is not judged.

namespace fix {

class Ledger {
 public:
  explicit Ledger(const Limits& limits) : limits_(limits) {}

  void bump() {
    count_.fetch_add(1, std::memory_order_relaxed);
    const MutexLock lock(mu_);
    total_ = total_ + 1;
  }

  long snapshot() {
    const MutexLock lock(mu_);
    return total_ + quota_;
  }

 private:
  Mutex mu_;
  CondVar changed_;
  std::atomic<long> count_{0};
  long total_ RDS_GUARDED_BY(mu_) = 0;
  const long quota_ = 64;
  Counter* const bumps_ = nullptr;
  const Limits& limits_;
  static constexpr int kShards_ = 4;
  RcuCell<Snapshot> published_;
};

struct Plain {
  int hits_ = 0;
};

}  // namespace fix
