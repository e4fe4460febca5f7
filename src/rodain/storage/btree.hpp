// B+-tree secondary index.
//
// The number-translation workload looks up subscriber records by dialled
// digit string; the tree maps fixed-width 16-byte keys (zero-padded numbers)
// to ObjectIds, with linked leaves for range scans (prefix enumeration of a
// number block). Classic order-B design: split on overflow, borrow/merge on
// underflow.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "rodain/common/status.hpp"
#include "rodain/common/types.hpp"

namespace rodain::storage {

/// Fixed-width index key: lexicographically compared 16 bytes.
struct IndexKey {
  std::array<std::uint8_t, 16> bytes{};

  [[nodiscard]] static IndexKey from_string(std::string_view s);
  [[nodiscard]] static IndexKey from_u64(std::uint64_t v);  ///< big-endian
  [[nodiscard]] static IndexKey min() { return IndexKey{}; }
  [[nodiscard]] static IndexKey max();

  [[nodiscard]] std::string to_string() const;  ///< printable prefix

  auto operator<=>(const IndexKey&) const = default;
};

/// One index mutation, as recorded by the change journal and replayed from
/// checkpoint delta files (DESIGN.md §15). kUpsert covers both insert and
/// value update (applied as insert-or-update); kErase removes the key if
/// present. Both are idempotent under re-application.
struct IndexOp {
  enum class Kind : std::uint8_t { kUpsert = 0, kErase = 1 };
  Kind kind{Kind::kUpsert};
  IndexKey key{};
  ObjectId oid{kInvalidObject};
};

class BPlusTree {
 public:
  static constexpr std::size_t kOrder = 32;  // max keys per node

  BPlusTree();
  ~BPlusTree();
  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;
  BPlusTree(BPlusTree&& o) noexcept;
  BPlusTree& operator=(BPlusTree&& o) noexcept;

  /// Insert; returns false (tree unchanged) when the key already exists.
  bool insert(const IndexKey& key, ObjectId value);

  /// Replace the value of an existing key; false if absent.
  bool update(const IndexKey& key, ObjectId value);

  [[nodiscard]] std::optional<ObjectId> find(const IndexKey& key) const;

  bool erase(const IndexKey& key);

  /// Visit entries with lo <= key <= hi in key order; stop early when the
  /// visitor returns false.
  void range_scan(const IndexKey& lo, const IndexKey& hi,
                  const std::function<bool(const IndexKey&, ObjectId)>& fn) const;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t height() const;

  // Readers (find/range_scan/height/validate) take mu_ shared; structural
  // mutators (insert/update/erase) take it unique. Mutators are already
  // serialized by the node's commit mutex, so the unique acquisition only
  // fences off-lock lookups (Database::get_by_key, the fuzzy checkpoint's
  // index scan) during splits/merges (DESIGN.md §11); readers never block
  // each other.

  /// Check every structural invariant (key order, fill factors, leaf links,
  /// separator correctness). Test/debug aid; O(n).
  [[nodiscard]] Status validate() const;

  // ---- change journal (fuzzy checkpoint deltas, DESIGN.md §15) ----------
  /// Enable (clear + start recording) or disable the journal. While enabled,
  /// every successful insert/update/erase appends an op under the unique
  /// lock it already holds.
  void set_journal(bool enabled);
  /// Take the ops recorded since the last cut; the journal stays enabled.
  [[nodiscard]] std::vector<IndexOp> cut_journal();
  /// Put back ops from a failed checkpoint so the next cut re-covers them
  /// (prepended: they happened before anything recorded since the cut).
  void restore_journal(std::vector<IndexOp> ops);
  [[nodiscard]] bool journal_enabled() const;

  /// Resumable full scan in key order: emits every stable entry in chunks of
  /// `chunk`, dropping and re-taking the shared lock between chunks so
  /// mutators wait at most one chunk. Entries inserted or erased mid-scan may
  /// or may not be seen — callers pair the scan with the change journal
  /// (fuzzy base encode) or exclude writers.
  void chunked_scan(std::size_t chunk,
                    const std::function<void(const IndexKey&, ObjectId)>& fn) const;

 private:
  struct Node;
  struct InsertResult;

  [[nodiscard]] std::size_t height_unlocked() const;
  Node* leaf_for(const IndexKey& key) const;
  InsertResult insert_rec(Node* n, const IndexKey& key, ObjectId value);
  bool erase_rec(Node* n, const IndexKey& key);
  void rebalance_child(Node* parent, std::size_t idx);
  static void destroy(Node* n);
  Status validate_rec(const Node* n, const IndexKey* lo, const IndexKey* hi,
                      std::size_t depth, std::size_t leaf_depth) const;

  Node* root_{nullptr};
  std::size_t size_{0};
  bool journal_enabled_{false};
  std::vector<IndexOp> journal_;
  mutable std::shared_mutex mu_;
};

}  // namespace rodain::storage
