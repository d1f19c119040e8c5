// rds_analyze fixture: trips lock-order once.  A::ping holds A::mu_ and
// calls B::pong, which holds B::mu_ and calls A::poke (A::mu_ again) -- an
// A::mu_ <-> B::mu_ cycle in the acquisition graph.

namespace fix {

class B;

class A {
 public:
  void ping(B& b);
  void poke() {
    const MutexLock lock(mu_);
    ++hits_;
  }

 private:
  friend class B;
  Mutex mu_;
  int hits_ RDS_GUARDED_BY(mu_) = 0;
};

class B {
 public:
  void pong(A& a) {
    const MutexLock lock(mu_);
    a.poke();
  }

 private:
  Mutex mu_;
};

void A::ping(B& b) {
  const MutexLock lock(mu_);
  b.pong(*this);
}

}  // namespace fix
