#include "storage/btree.h"

#include <algorithm>
#include <cstring>

namespace ovc {

struct BTree::Node {
  Node(bool is_leaf, uint32_t width)
      : leaf(is_leaf), rows(width), separators(width) {}

  bool leaf;
  // Leaf payload.
  RowBuffer rows;
  std::vector<Ovc> codes;
  Node* prev = nullptr;
  Node* next = nullptr;
  // Internal payload: separators[i] is a lower bound for children[i]'s keys
  // (exact at split time; deletions may make it conservative, which keeps
  // routing correct because keys only disappear).
  RowBuffer separators;
  std::vector<Node*> children;
};

BTree::BTree(const Schema* schema, QueryCounters* counters,
             uint32_t node_capacity)
    : schema_(schema),
      codec_(schema),
      comparator_(schema, counters),
      counters_(counters),
      node_capacity_(node_capacity) {
  OVC_CHECK(node_capacity >= 4);
  root_ = new Node(/*is_leaf=*/true, schema->total_columns());
}

void BTree::DestroyRecursive(Node* node) {
  if (!node->leaf) {
    for (Node* child : node->children) {
      DestroyRecursive(child);
    }
  }
  delete node;
}

BTree::~BTree() { DestroyRecursive(root_); }

BTree::Node* BTree::LeftmostLeaf() const {
  Node* n = root_;
  while (!n->leaf) {
    n = n->children.front();
  }
  return n;
}

void BTree::FindBound(const uint64_t* key_row, bool strict,
                      const KeyComparator& cmp, Node** leaf, uint32_t* pos,
                      bool* at_key) const {
  // An entry sorts "before" the bound when it is < key_row (<= if strict).
  // `equal` remembers whether the entry at `hi` compared equal.
  bool equal = false;
  const auto before = [&](const uint64_t* row) {
    const int c = cmp.Compare(row, key_row);
    equal = c == 0;
    return c < 0 || (strict && c == 0);
  };
  Node* n = root_;
  while (!n->leaf) {
    // Largest child whose separator sorts before the bound. Insert routes
    // equal keys right, so every entry of an earlier child sorts at or
    // before that separator.
    uint32_t lo = 1, hi = static_cast<uint32_t>(n->children.size());
    while (lo < hi) {
      const uint32_t mid = lo + (hi - lo) / 2;
      if (before(n->separators.row(mid))) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    n = n->children[lo - 1];
  }
  // In-leaf bound.
  uint32_t lo = 0, hi = static_cast<uint32_t>(n->rows.size());
  bool hi_equal = false;
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    if (before(n->rows.row(mid))) {
      lo = mid + 1;
    } else {
      hi = mid;
      hi_equal = equal;
    }
  }
  // The bound may live in a following leaf (conservative separators,
  // empty leaves); its entry there was never probed.
  const bool moved = lo >= n->rows.size();
  while (lo >= n->rows.size() && n->next != nullptr) {
    n = n->next;
    lo = 0;
  }
  *leaf = n;
  *pos = lo;
  if (at_key != nullptr) {
    *at_key = moved ? lo < n->rows.size() &&
                          cmp.Compare(n->rows.row(lo), key_row) == 0
                    : hi_equal;
  }
}

const uint64_t* BTree::FirstRow() const {
  Node* n = LeftmostLeaf();
  while (n != nullptr && n->rows.empty()) n = n->next;
  return n == nullptr ? nullptr : n->rows.row(0);
}

const uint64_t* BTree::LastRow() const {
  Node* n = root_;
  while (!n->leaf) n = n->children.back();
  while (n != nullptr && n->rows.empty()) n = n->prev;
  return n == nullptr ? nullptr : n->rows.row(n->rows.size() - 1);
}

bool BTree::NextEntry(Node* leaf, uint32_t pos, Node** out_leaf,
                      uint32_t* out_pos) const {
  if (pos + 1 < leaf->rows.size()) {
    *out_leaf = leaf;
    *out_pos = pos + 1;
    return true;
  }
  Node* n = leaf->next;
  while (n != nullptr && n->rows.empty()) n = n->next;
  if (n == nullptr) return false;
  *out_leaf = n;
  *out_pos = 0;
  return true;
}

void BTree::FixupSuccessorAfterInsert(Node* leaf, uint32_t new_pos) {
  Node* succ_leaf = nullptr;
  uint32_t succ_pos = 0;
  if (!NextEntry(leaf, new_pos, &succ_leaf, &succ_pos)) return;

  const Ovc x_code = leaf->codes[new_pos];
  Ovc& succ_code = succ_leaf->codes[succ_pos];
  // Theorem: ovc(P,N) = max(ovc(P,X), ovc(X,N)), so ovc(P,X) <= ovc(P,N).
  OVC_DCHECK(x_code <= succ_code);
  if (x_code < succ_code) {
    // max is ovc(X,N) = the stored code: nothing to do, no comparison.
    ++free_code_fixups_;
    return;
  }
  // Equal codes: the difference lies past the shared prefix and value.
  ++compared_code_fixups_;
  const uint64_t* x_row = leaf->rows.row(new_pos);
  const uint64_t* succ_row = succ_leaf->rows.row(succ_pos);
  const uint32_t d =
      comparator_.FirstDifference(x_row, succ_row, codec_.ResumeColumn(x_code));
  succ_code = codec_.MakeFromRow(succ_row, d);
}

void BTree::FixupSuccessorAfterDelete(Node* leaf, uint32_t del_pos,
                                      Ovc deleted_code) {
  Node* succ_leaf = nullptr;
  uint32_t succ_pos = 0;
  if (!NextEntry(leaf, del_pos, &succ_leaf, &succ_pos)) return;
  // The theorem applied directly: ovc(P,N) = max(ovc(P,X), ovc(X,N)).
  // Zero column comparisons, always.
  succ_leaf->codes[succ_pos] =
      std::max(deleted_code, succ_leaf->codes[succ_pos]);
  ++free_code_fixups_;
}

BTree::SplitResult BTree::InsertInto(Node* node, const uint64_t* row) {
  if (node->leaf) {
    // Upper bound: new duplicates go after existing equal keys.
    uint32_t lo = 0, hi = static_cast<uint32_t>(node->rows.size());
    while (lo < hi) {
      const uint32_t mid = lo + (hi - lo) / 2;
      if (comparator_.Compare(node->rows.row(mid), row) <= 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    // Compute the new row's code against its predecessor.
    const uint64_t* pred = nullptr;
    if (lo > 0) {
      pred = node->rows.row(lo - 1);
    } else {
      Node* p = node->prev;
      while (p != nullptr && p->rows.empty()) p = p->prev;
      if (p != nullptr) pred = p->rows.row(p->rows.size() - 1);
    }
    Ovc code;
    if (pred == nullptr) {
      code = codec_.MakeInitial(row);
    } else {
      const uint32_t d = comparator_.FirstDifference(pred, row, 0);
      code = codec_.MakeFromRow(row, d);
    }
    // Insert at position lo (RowBuffer has no insert; rebuild tail).
    const uint32_t width = node->rows.width();
    node->rows.AppendRow(row);  // grows by one; now shift into place
    for (uint32_t i = static_cast<uint32_t>(node->rows.size()) - 1; i > lo;
         --i) {
      std::memcpy(node->rows.mutable_row(i), node->rows.row(i - 1),
                  width * sizeof(uint64_t));
    }
    std::memcpy(node->rows.mutable_row(lo), row, width * sizeof(uint64_t));
    node->codes.insert(node->codes.begin() + lo, code);
    FixupSuccessorAfterInsert(node, lo);

    if (node->rows.size() <= node_capacity_) {
      return SplitResult{};
    }
    // Split: move the upper half to a new right sibling. Codes move
    // unchanged -- predecessor relationships are unaffected.
    Node* right = new Node(/*is_leaf=*/true, width);
    const uint32_t mid = static_cast<uint32_t>(node->rows.size()) / 2;
    for (uint32_t i = mid; i < node->rows.size(); ++i) {
      right->rows.AppendRow(node->rows.row(i));
      right->codes.push_back(node->codes[i]);
    }
    RowBuffer left_rows(width);
    std::vector<Ovc> left_codes;
    for (uint32_t i = 0; i < mid; ++i) {
      left_rows.AppendRow(node->rows.row(i));
      left_codes.push_back(node->codes[i]);
    }
    node->rows = std::move(left_rows);
    node->codes = std::move(left_codes);
    right->next = node->next;
    if (right->next != nullptr) right->next->prev = right;
    right->prev = node;
    node->next = right;
    return SplitResult{right};
  }

  // Internal node: route with <= so duplicates insert after equals.
  uint32_t lo = 1, hi = static_cast<uint32_t>(node->children.size());
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    if (comparator_.Compare(node->separators.row(mid), row) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const uint32_t child_idx = lo - 1;
  SplitResult child_split = InsertInto(node->children[child_idx], row);
  if (child_split.right == nullptr) {
    return SplitResult{};
  }
  // Install the new child with its first key as separator.
  Node* right_child = child_split.right;
  const uint64_t* sep = right_child->leaf
                            ? right_child->rows.row(0)
                            : right_child->separators.row(0);
  const uint32_t width = node->separators.width();
  node->separators.AppendRow(sep);
  for (uint32_t i = static_cast<uint32_t>(node->separators.size()) - 1;
       i > child_idx + 1; --i) {
    std::memcpy(node->separators.mutable_row(i), node->separators.row(i - 1),
                width * sizeof(uint64_t));
  }
  std::memcpy(node->separators.mutable_row(child_idx + 1), sep,
              width * sizeof(uint64_t));
  node->children.insert(node->children.begin() + child_idx + 1, right_child);

  if (node->children.size() <= node_capacity_) {
    return SplitResult{};
  }
  // Split the internal node.
  Node* right = new Node(/*is_leaf=*/false, width);
  const uint32_t mid = static_cast<uint32_t>(node->children.size()) / 2;
  for (uint32_t i = mid; i < node->children.size(); ++i) {
    right->separators.AppendRow(node->separators.row(i));
    right->children.push_back(node->children[i]);
  }
  RowBuffer left_seps(width);
  std::vector<Node*> left_children;
  for (uint32_t i = 0; i < mid; ++i) {
    left_seps.AppendRow(node->separators.row(i));
    left_children.push_back(node->children[i]);
  }
  node->separators = std::move(left_seps);
  node->children = std::move(left_children);
  return SplitResult{right};
}

void BTree::Insert(const uint64_t* row) {
  SplitResult split = InsertInto(root_, row);
  if (split.right != nullptr) {
    Node* new_root = new Node(/*is_leaf=*/false, schema_->total_columns());
    const uint64_t* left_sep =
        root_->leaf ? (root_->rows.empty() ? split.right->rows.row(0)
                                           : root_->rows.row(0))
                    : root_->separators.row(0);
    new_root->separators.AppendRow(left_sep);
    new_root->children.push_back(root_);
    const uint64_t* right_sep = split.right->leaf
                                    ? split.right->rows.row(0)
                                    : split.right->separators.row(0);
    new_root->separators.AppendRow(right_sep);
    new_root->children.push_back(split.right);
    root_ = new_root;
    ++height_;
  }
  ++size_;
}

bool BTree::Delete(const uint64_t* key_row) {
  Node* leaf = nullptr;
  uint32_t pos = 0;
  FindBound(key_row, /*strict=*/false, comparator_, &leaf, &pos, nullptr);
  if (pos >= leaf->rows.size() ||
      comparator_.Compare(leaf->rows.row(pos), key_row) != 0) {
    return false;
  }
  const Ovc deleted_code = leaf->codes[pos];
  FixupSuccessorAfterDelete(leaf, pos, deleted_code);
  // Erase the entry (shift down).
  const uint32_t width = leaf->rows.width();
  for (uint32_t i = pos; i + 1 < leaf->rows.size(); ++i) {
    std::memcpy(leaf->rows.mutable_row(i), leaf->rows.row(i + 1),
                width * sizeof(uint64_t));
  }
  // Shrink by rebuilding without the last row.
  RowBuffer shrunk(width);
  for (uint32_t i = 0; i + 1 < leaf->rows.size(); ++i) {
    shrunk.AppendRow(leaf->rows.row(i));
  }
  leaf->rows = std::move(shrunk);
  leaf->codes.erase(leaf->codes.begin() + pos);
  --size_;
  return true;
}

/// Ordered scan over the leaf chain; codes come straight from storage.
/// A range scan descends to both ends of its range on every Open().
class BTreeScanImpl : public Operator {
 public:
  /// Full scan.
  explicit BTreeScanImpl(const BTree* tree)
      : tree_(tree), prefix_(tree->schema()) {}

  /// Range scan of `low` <= key prefix <= `high`.
  BTreeScanImpl(const BTree* tree, uint32_t key_columns, const uint64_t* low,
                const uint64_t* high, QueryCounters* counters)
      : tree_(tree),
        ranged_(true),
        prefix_(tree->schema().KeyPrefix(key_columns)),
        low_(low, low + tree->schema().total_columns()),
        high_(high, high + tree->schema().total_columns()),
        counters_(counters) {}

  void Open() override {
    first_ = true;
    if (!ranged_) {
      leaf_ = tree_->LeftmostLeaf();
      pos_ = 0;
      end_leaf_ = nullptr;
      return;
    }
    // The bounds are query constants: comparing them with each other is
    // not a comparison against stored data, so it is not counted.
    const int order =
        KeyComparator(&prefix_, nullptr).Compare(low_.data(), high_.data());
    if (order > 0) {
      leaf_ = nullptr;
      return;
    }
    const KeyComparator cmp(&prefix_, counters_);
    bool found = false;
    tree_->FindBound(low_.data(), /*strict=*/false, cmp, &leaf_, &pos_,
                     &found);
    if (order < 0) {
      tree_->FindBound(high_.data(), /*strict=*/true, cmp, &end_leaf_,
                       &end_pos_, nullptr);
      return;
    }
    // An equality range ends at the first entry whose stored code marks a
    // change within the range's key columns: no column comparison.
    if (!found) {
      leaf_ = nullptr;
      return;
    }
    end_leaf_ = leaf_;
    end_pos_ = pos_;
    while (tree_->NextEntry(end_leaf_, end_pos_, &end_leaf_, &end_pos_)) {
      if (tree_->codec_.IsBoundary(end_leaf_->codes[end_pos_],
                                   prefix_.key_arity())) {
        return;
      }
    }
    end_leaf_ = nullptr;  // the range runs to the last entry
  }

  uint32_t NextBatch(RowBlock* out) override {
    // Copies whole leaf spans (rows and stored codes are contiguous per
    // leaf) instead of walking the chain row by row.
    out->Clear();
    while (!out->full()) {
      while (leaf_ != nullptr) {
        if (leaf_ == end_leaf_ && pos_ >= end_pos_) {
          leaf_ = nullptr;
          break;
        }
        if (pos_ < leaf_->rows.size()) break;
        leaf_ = leaf_->next;
        pos_ = 0;
      }
      if (leaf_ == nullptr) break;
      uint32_t limit = static_cast<uint32_t>(leaf_->rows.size());
      if (leaf_ == end_leaf_ && end_pos_ < limit) limit = end_pos_;
      const uint32_t room = out->capacity() - out->size();
      uint32_t n = limit - pos_;
      if (n > room) n = room;
      out->AppendContiguous(leaf_->rows.row(pos_), leaf_->codes.data() + pos_,
                            n);
      pos_ += n;
      if (first_) {
        if (ranged_) {
          out->set_code(0, tree_->codec_.MakeInitial(out->row(0)));
        }
        first_ = false;
      }
    }
    return out->size();
  }

  void Close() override {}
  const Schema& schema() const override { return tree_->schema(); }
  bool sorted() const override { return true; }
  bool has_ovc() const override { return true; }

 private:
  const BTree* tree_;
  bool ranged_ = false;
  Schema prefix_;  // compares the range's key prefix
  std::vector<uint64_t> low_;
  std::vector<uint64_t> high_;
  QueryCounters* counters_ = nullptr;

  BTree::Node* leaf_ = nullptr;
  uint32_t pos_ = 0;
  BTree::Node* end_leaf_ = nullptr;
  uint32_t end_pos_ = 0;
  bool first_ = true;
};

std::unique_ptr<Operator> BTree::Scan() const {
  return std::make_unique<BTreeScanImpl>(this);
}

std::unique_ptr<Operator> BTree::RangeScan(uint32_t key_columns,
                                           const uint64_t* low_key,
                                           const uint64_t* high_key,
                                           QueryCounters* counters) const {
  return std::make_unique<BTreeScanImpl>(this, key_columns, low_key, high_key,
                                         counters);
}

}  // namespace ovc
