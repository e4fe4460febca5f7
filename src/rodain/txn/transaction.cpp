#include "rodain/txn/transaction.hpp"

namespace rodain::txn {

bool Transaction::in_read_set(ObjectId oid) const {
  for (const ReadEntry& e : read_set_) {
    if (e.oid == oid) return true;
  }
  return false;
}

bool Transaction::in_write_set(ObjectId oid) const {
  for (const WriteEntry& e : write_set_) {
    if (e.oid == oid) return true;
  }
  return false;
}

void Transaction::note_read(ObjectId oid, ValidationTs observed_wts) {
  for (const ReadEntry& e : read_set_) {
    if (e.oid == oid) return;  // first observation wins
  }
  read_set_.push_back(ReadEntry{oid, observed_wts});
}

storage::Value& Transaction::write_copy(ObjectId oid, const storage::Value& base) {
  for (WriteEntry& e : write_set_) {
    if (e.oid == oid) {
      if (e.is_delete()) {
        // Revived within the transaction: the private view says the object
        // was deleted, so the new copy starts from "missing", not from the
        // committed base.
        e.kind = WriteEntry::Kind::kPut;
        e.after = storage::Value{};
      }
      return e.after;
    }
  }
  WriteEntry entry;
  entry.oid = oid;
  entry.after = base;
  write_set_.push_back(std::move(entry));
  return write_set_.back().after;
}

WriteEntry& Transaction::delete_entry(ObjectId oid, bool has_key,
                                      const storage::IndexKey& key) {
  for (WriteEntry& e : write_set_) {
    if (e.oid == oid) {
      e.kind = WriteEntry::Kind::kDelete;
      e.after.clear();
      if (has_key) {
        e.has_key = true;
        e.key = key;
      }
      return e;
    }
  }
  WriteEntry entry;
  entry.oid = oid;
  entry.kind = WriteEntry::Kind::kDelete;
  entry.has_key = has_key;
  entry.key = key;
  write_set_.push_back(std::move(entry));
  return write_set_.back();
}

void Transaction::set_entry_key(ObjectId oid, const storage::IndexKey& key) {
  for (WriteEntry& e : write_set_) {
    if (e.oid == oid) {
      e.has_key = true;
      e.key = key;
      return;
    }
  }
}

const WriteEntry* Transaction::find_write(ObjectId oid) const {
  for (const WriteEntry& e : write_set_) {
    if (e.oid == oid) return &e;
  }
  return nullptr;
}

void Transaction::prepare_restart() {
  phase_ = Phase::kReadPhase;
  pc_ = 0;
  read_set_.clear();
  write_set_.clear();
  interval_.reset();
  validation_seq_ = kInvalidValidationTs;
  serial_ts_ = kInvalidValidationTs;
  captured_reads.clear();
  ++restarts_;
}

}  // namespace rodain::txn
