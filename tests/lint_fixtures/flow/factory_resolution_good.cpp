// rds_analyze fixture twin: clean.  The sleeping selector call runs
// before the mutex is taken.

namespace fix {

class Selector {
 public:
  void pick(int k) {
    std::this_thread::sleep_for(delay_);
  }

 private:
  Duration delay_;
};

Selector make_selector();

class Balancer {
 public:
  void rebalance() {
    auto sel = make_selector();
    sel.pick(2);
    const MutexLock lock(mu_);
    generation_ += 1;
  }

 private:
  Mutex mu_;
  int generation_ RDS_GUARDED_BY(mu_) = 0;
};

}  // namespace fix
