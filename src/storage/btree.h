// In-memory B-tree with explicit offset-value codes (Section 4.11, and the
// companion work the paper cites as "Storage and access with offset-value
// coding" [22]).
//
// Each leaf entry stores its row's ascending code relative to the tree's
// *global* predecessor row, so an ordered scan "preserves the effort for
// comparisons spent during index creation": it emits rows with codes at
// zero comparison cost. Node splits never touch codes (they do not change
// predecessor relationships). Maintenance:
//
//  * Insert of X between P and N: X's code comes from the descent's final
//    comparison. N's fixup follows from the theorem
//    ovc(P,N) = max(ovc(P,X), ovc(X,N)): when ovc(P,X) < ovc(P,N), N's code
//    is unchanged -- no comparison; only the equal-code case compares, and
//    it starts past the shared prefix and value.
//  * Delete of X between P and N: N's new code is exactly
//    max(ovc(P,X), ovc(X,N)) -- the theorem applied directly, never any
//    column comparison ("efficient maintenance of offset-value codes ...
//    in b-trees with prefix truncation (during key deletion)").
//
// Simplifications vs a disk-based B-tree: nodes are heap-allocated with
// vector storage, and deletion is lazy (no rebalancing; empty leaves are
// unlinked). Neither affects code maintenance, which is the point here.

#ifndef OVC_STORAGE_BTREE_H_
#define OVC_STORAGE_BTREE_H_

#include <memory>
#include <vector>

#include "common/counters.h"
#include "core/ovc.h"
#include "exec/operator.h"
#include "row/comparator.h"
#include "row/row_buffer.h"

namespace ovc {

/// Ordered row store with offset-value-coded scans.
class BTree {
 public:
  /// `schema` and `counters` (optional) must outlive the tree.
  /// `node_capacity` caps entries per node (leaf and internal alike).
  BTree(const Schema* schema, QueryCounters* counters,
        uint32_t node_capacity = 64);
  ~BTree();

  /// Inserts a copy of `row`. Duplicate keys are allowed; a new duplicate
  /// is placed after existing equal keys.
  void Insert(const uint64_t* row);

  /// Deletes the first row whose full key equals `key_row`'s. Returns false
  /// when no such row exists. The successor's code is fixed up by the
  /// theorem, with no column comparisons.
  bool Delete(const uint64_t* key_row);

  /// Rows currently stored.
  uint64_t size() const { return size_; }

  /// Row layout of the stored table (and of every scan).
  const Schema& schema() const { return *schema_; }

  /// Full ordered scan with offset-value codes (zero comparisons).
  /// The returned operator borrows the tree; do not mutate during a scan.
  std::unique_ptr<Operator> Scan() const;

  /// Ordered scan of the rows whose first `key_columns` key columns lie
  /// between `low_key` and `high_key` (inclusive; rows of the tree's width,
  /// copied). The scan descends to the range when it opens, counting its
  /// comparisons into `counters` (may be null); when the two keys are
  /// equal the stored codes mark the range's end, otherwise a second
  /// descent finds it. `low_key` sorting after `high_key` is an empty
  /// range. The first emitted row's code is re-based to offset 0; all
  /// further codes come straight from storage.
  std::unique_ptr<Operator> RangeScan(uint32_t key_columns,
                                      const uint64_t* low_key,
                                      const uint64_t* high_key,
                                      QueryCounters* counters) const;

  /// First and last row in key order (null when the tree is empty).
  const uint64_t* FirstRow() const;
  const uint64_t* LastRow() const;

  /// Number of successor-code fixups on insert/delete that the theorem
  /// resolved without any column comparison.
  uint64_t free_code_fixups() const { return free_code_fixups_; }
  /// Number of fixups that needed column comparisons (equal-code case).
  uint64_t compared_code_fixups() const { return compared_code_fixups_; }
  /// Height of the tree (1 = a single leaf).
  uint32_t height() const { return height_; }

 private:
  struct Node;
  friend class BTreeScanImpl;

  struct SplitResult {
    Node* right = nullptr;  // nullptr: no split happened
  };

  static void DestroyRecursive(Node* node);
  Node* LeftmostLeaf() const;
  /// Finds the leaf and in-leaf position of the first entry with key >=
  /// `key_row` (`strict`: key > `key_row`), comparing through `cmp`. When
  /// `at_key` is given, it reports whether that entry equals `key_row`.
  void FindBound(const uint64_t* key_row, bool strict,
                 const KeyComparator& cmp, Node** leaf, uint32_t* pos,
                 bool* at_key) const;
  SplitResult InsertInto(Node* node, const uint64_t* row);
  void FixupSuccessorAfterInsert(Node* leaf, uint32_t new_pos);
  void FixupSuccessorAfterDelete(Node* leaf, uint32_t del_pos,
                                 Ovc deleted_code);
  /// The entry following (leaf, pos), possibly in the next leaf.
  bool NextEntry(Node* leaf, uint32_t pos, Node** out_leaf,
                 uint32_t* out_pos) const;

  const Schema* schema_;
  OvcCodec codec_;
  KeyComparator comparator_;
  QueryCounters* counters_;
  uint32_t node_capacity_;

  Node* root_ = nullptr;
  uint64_t size_ = 0;
  uint32_t height_ = 1;
  uint64_t free_code_fixups_ = 0;
  uint64_t compared_code_fixups_ = 0;
};

}  // namespace ovc

#endif  // OVC_STORAGE_BTREE_H_
