// rds_analyze fixture: the commit-log protocol done right.  State is
// mutated first, then the append commits it; the append Result is
// inspected on every path and nothing is touched afterwards.  Mirror
// calls another object's committing API through a same-class helper: that
// commits the Disk, not the Mirror, whose state may change afterwards.

namespace fix {

class Journal {
 public:
  Result<long> append(int record);
};

class Pool {
 public:
  Result<void> commit(int record) {
    state_ = record;
    auto appended = journal_.append(record);
    if (!appended.ok()) return appended.error();
    return {};
  }

  long commit_or_throw(int record) {
    state_ = record;
    return journal_.append(record).value_or_throw();
  }

 private:
  Journal journal_;
  int state_ = 0;
};

class Disk {
 public:
  Result<void> try_edit(int record) RDS_EXCLUDES(mu_) {
    state_ = record;
    auto appended = journal_.append(record);
    if (!appended.ok()) return appended.error();
    return {};
  }

 private:
  Journal journal_;
  int state_ = 0;
};

class Mirror {
 public:
  void run(int record) {
    edit(record);
    edits_ = edits_ + 1;
  }

 private:
  void edit(int record) { disk_->try_edit(record).value_or_throw(); }

  Disk* disk_ = nullptr;
  int edits_ = 0;
};

}  // namespace fix
