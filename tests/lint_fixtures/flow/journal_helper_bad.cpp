// rds_analyze fixture: trips journal-protocol twice through a `*_locked`
// helper of another class.  The helper runs inside the caller's critical
// section (a device set's one append, called by each holder of the set),
// so its append is the caller's commit point.
//
//  * commit_ignored drops the helper's Result on the floor.
//  * mutate_after mutates member state after the helper appended.

namespace fix {

class Journal {
 public:
  Result<long> append(int record);
};

class Set {
 public:
  Result<long> journal_locked(int record) { return journal_.append(record); }

 private:
  Journal journal_;
};

class Volume {
 public:
  void commit_ignored(int record) {
    state_ = record;
    set_->journal_locked(record);
  }

  Result<long> mutate_after(int record) {
    auto appended = set_->journal_locked(record);
    state_ = record;
    return appended;
  }

 private:
  Set* set_ = nullptr;
  int state_ = 0;
};

}  // namespace fix
