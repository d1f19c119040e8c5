// rds_analyze fixture: same classes as lock_order_bad.cpp with a
// consistent acquisition order -- A::mu_ is always taken before B::mu_ --
// so the graph is acyclic.

namespace fix {

class B {
 public:
  void pong() {
    const MutexLock lock(mu_);
    ++hits_;
  }

 private:
  Mutex mu_;
  int hits_ RDS_GUARDED_BY(mu_) = 0;
};

class A {
 public:
  void ping(B& b) {
    const MutexLock lock(mu_);
    b.pong();
  }

 private:
  Mutex mu_;
};

}  // namespace fix
