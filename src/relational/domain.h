#ifndef HAMLET_RELATIONAL_DOMAIN_H_
#define HAMLET_RELATIONAL_DOMAIN_H_

/// \file domain.h
/// Closed categorical domains (string dictionaries).
///
/// Per the paper's Section 2.1 every feature — including the target and
/// every foreign key — is a discrete random variable over a known finite
/// domain. A Domain maps each category label to a dense code in
/// [0, size()). Foreign-key columns *share* the Domain of the primary key
/// they reference, which is what makes the closed-domain assumption
/// (dom(FK) = set of RID values in R) structural rather than a runtime
/// convention.
///
/// A Domain is flat: every label's bytes live in one arena, indexed by a
/// per-code end offset, and the label -> code index is an open-addressing
/// table of (hash tag, code) slots that compares probes against the
/// arena. A million-label RID dictionary is therefore three allocations,
/// not a million strings plus a million hash nodes, to build and to free.
/// Codes are handed out in insertion order, so the hash never decides a
/// code. Lookups take std::string_view, so hot paths (the chunked CSV
/// parser, DomainRemap construction) never materialize a std::string.
///
/// Const methods are safe to call concurrently; GetOrAdd is not, and it
/// may move the arena, which invalidates views label() returned earlier.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace hamlet {

/// A finite, ordered set of category labels with O(1) label<->code lookup.
class Domain {
 public:
  /// The code CodeOf reports for an absent label; never a real code.
  static constexpr uint32_t kNoCode = UINT32_MAX;

  Domain() = default;

  /// Builds a domain from distinct labels. Duplicate labels are a
  /// programming error (checked).
  explicit Domain(const std::vector<std::string>& labels);

  /// Creates the domain {"0","1",...,"<n-1>"} — handy for synthetic data
  /// and integer-coded categories.
  static std::shared_ptr<Domain> Dense(uint32_t n, const std::string& prefix = "");

  /// The hash that places a label in the index (its low bits pick the
  /// home slot, all 32 bits are the slot's tag).
  static uint32_t Hash(std::string_view label);

  /// Returns the code of `label`, adding it if absent.
  uint32_t GetOrAdd(std::string_view label);

  /// Returns the code of `label` or NotFound.
  Result<uint32_t> Lookup(std::string_view label) const;

  /// Like Lookup but without a Status on miss: returns kNoCode when the
  /// label is absent. The code-level join/ingest paths use this form.
  uint32_t CodeOf(std::string_view label) const;

  /// True iff the label is present.
  bool Contains(std::string_view label) const {
    return CodeOf(label) != kNoCode;
  }

  /// The label for a code; code must be < size(). The view points into
  /// the arena and stays valid until the next GetOrAdd.
  std::string_view label(uint32_t code) const;

  /// Number of categories.
  uint32_t size() const { return static_cast<uint32_t>(ends_.size()); }

  /// All labels in code order (a copy).
  std::vector<std::string> labels() const;

  /// Slots in the index (a power of two, or 0 while empty).
  size_t capacity() const { return slots_.size(); }

 private:
  /// One index entry; code == kNoCode marks an empty slot.
  struct Slot {
    uint32_t tag = 0;
    uint32_t code = kNoCode;
  };

  std::string_view LabelAt(uint32_t code) const {
    const uint64_t begin = code == 0 ? 0 : ends_[code - 1];
    return std::string_view(arena_.data() + begin, ends_[code] - begin);
  }

  /// The slot holding `label`, or the empty slot that ends its probe
  /// chain. The index must be non-empty.
  size_t Probe(std::string_view label, uint32_t tag) const;

  /// The first empty slot of `tag`'s probe chain.
  size_t FreeSlot(uint32_t tag) const;

  /// Grows the index to hold `n` labels at a load factor of at most 3/4,
  /// re-placing every slot by its tag (no label is re-hashed).
  void Reserve(size_t n);

  std::string arena_;
  /// ends_[c] is one past label c's last byte in arena_.
  std::vector<uint64_t> ends_;
  std::vector<Slot> slots_;
};

/// A one-shot code→code translation between two domains, so joins probe
/// integer codes instead of labels even when the two columns were built
/// with distinct Domain objects. map[c] is the code in `to` of
/// from.label(c), or Domain::kNoCode when `to` lacks the label. When
/// `from` and `to` are the same object the remap is the identity and no
/// table is built.
class DomainRemap {
 public:
  static constexpr uint32_t kNoCode = Domain::kNoCode;

  DomainRemap(const std::shared_ptr<Domain>& from,
              const std::shared_ptr<Domain>& to);

  /// Translates a `from` code (must be < from.size()).
  uint32_t operator[](uint32_t from_code) const {
    if (identity_) return from_code;
    return map_[from_code];
  }

  /// True when the two domains are the same object (zero-cost remap).
  bool identity() const { return identity_; }

 private:
  bool identity_ = false;
  std::vector<uint32_t> map_;
};

}  // namespace hamlet

#endif  // HAMLET_RELATIONAL_DOMAIN_H_
