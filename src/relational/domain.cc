#include "relational/domain.h"

#include <charconv>
#include <functional>

#include "common/check.h"
#include "common/string_util.h"

namespace hamlet {

Domain::Domain(const std::vector<std::string>& labels) {
  size_t bytes = 0;
  for (const std::string& label : labels) bytes += label.size();
  arena_.reserve(bytes);
  ends_.reserve(labels.size());
  Reserve(labels.size());
  for (const std::string& label : labels) {
    const uint32_t expected = size();
    const uint32_t code = GetOrAdd(label);
    HAMLET_CHECK(code == expected, "duplicate label '%s' in Domain",
                 label.c_str());
  }
}

std::shared_ptr<Domain> Domain::Dense(uint32_t n, const std::string& prefix) {
  auto domain = std::make_shared<Domain>();
  domain->ends_.reserve(n);
  domain->Reserve(n);
  std::string label = prefix;
  char digits[16];
  for (uint32_t i = 0; i < n; ++i) {
    char* end = std::to_chars(digits, digits + sizeof(digits), i).ptr;
    label.resize(prefix.size());
    label.append(digits, static_cast<size_t>(end - digits));
    domain->GetOrAdd(label);
  }
  return domain;
}

uint32_t Domain::Hash(std::string_view label) {
  const uint64_t h = std::hash<std::string_view>{}(label);
  return static_cast<uint32_t>(h ^ (h >> 32));
}

size_t Domain::Probe(std::string_view label, uint32_t tag) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = tag & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.code == kNoCode) return i;
    if (slot.tag == tag && LabelAt(slot.code) == label) return i;
  }
}

size_t Domain::FreeSlot(uint32_t tag) const {
  const size_t mask = slots_.size() - 1;
  size_t i = tag & mask;
  while (slots_[i].code != kNoCode) i = (i + 1) & mask;
  return i;
}

void Domain::Reserve(size_t n) {
  size_t capacity = slots_.empty() ? 16 : slots_.size();
  while (n * 4 > capacity * 3) capacity *= 2;
  if (capacity == slots_.size()) return;
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot{});
  for (const Slot& slot : old) {
    if (slot.code != kNoCode) slots_[FreeSlot(slot.tag)] = slot;
  }
}

uint32_t Domain::GetOrAdd(std::string_view label) {
  const uint32_t tag = Hash(label);
  size_t i = 0;
  if (!slots_.empty()) {
    i = Probe(label, tag);
    if (slots_[i].code != kNoCode) return slots_[i].code;
  }
  const uint32_t code = size();
  HAMLET_CHECK(code != kNoCode, "domain is full at %u labels", code);
  // std::string::append copes with `label` viewing this arena.
  arena_.append(label.data(), label.size());
  ends_.push_back(arena_.size());
  const size_t capacity = slots_.size();
  Reserve(size());
  if (slots_.size() != capacity) i = FreeSlot(tag);
  slots_[i] = {tag, code};
  return code;
}

uint32_t Domain::CodeOf(std::string_view label) const {
  if (slots_.empty()) return kNoCode;
  return slots_[Probe(label, Hash(label))].code;
}

Result<uint32_t> Domain::Lookup(std::string_view label) const {
  const uint32_t code = CodeOf(label);
  if (code == kNoCode) {
    return Status::NotFound(
        StringFormat("label '%.*s' not in domain",
                     static_cast<int>(label.size()), label.data()));
  }
  return code;
}

std::string_view Domain::label(uint32_t code) const {
  HAMLET_CHECK(code < size(), "code %u out of domain of size %u", code,
               size());
  return LabelAt(code);
}

std::vector<std::string> Domain::labels() const {
  std::vector<std::string> out;
  out.reserve(size());
  for (uint32_t c = 0; c < size(); ++c) out.emplace_back(LabelAt(c));
  return out;
}

DomainRemap::DomainRemap(const std::shared_ptr<Domain>& from,
                         const std::shared_ptr<Domain>& to) {
  HAMLET_CHECK(from != nullptr && to != nullptr,
               "DomainRemap requires non-null domains");
  if (from == to) {
    identity_ = true;
    return;
  }
  map_.resize(from->size());
  for (uint32_t c = 0; c < from->size(); ++c) {
    map_[c] = to->CodeOf(from->label(c));
  }
}

}  // namespace hamlet
