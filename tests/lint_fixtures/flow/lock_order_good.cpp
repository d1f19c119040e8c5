// rds_analyze fixture: same classes as lock_order_bad.cpp with a
// consistent acquisition order -- A::mu_ is always taken before B::mu_,
// and the pool lock before the volume lock -- so the graph is acyclic and
// correctly oriented.

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

class VirtualDisk {
 public:
  void flush() {
    const MutexLock lock(mu_);
    ++flushed_;
  }

 private:
  friend class StoragePool;
  Mutex mu_;
  int flushed_ RDS_GUARDED_BY(mu_) = 0;
};

class StoragePool {
 public:
  void admit(VirtualDisk& disk) {
    const MutexLock lock(mu_);
    disk.flush();
  }

 private:
  Mutex mu_;
};

}  // namespace fix
