#include "sim/stable_storage.hpp"

#include "util/ensure.hpp"

namespace dynvote::sim {

StableStorage::KeyId StableStorage::intern(std::string_view key) {
  auto it = ids_.find(key);
  if (it != ids_.end()) return it->second;
  const KeyId id = static_cast<KeyId>(entries_.size());
  entries_.emplace_back();
  ids_.emplace(std::string(key), id);
  return id;
}

StableStorage::Entry& StableStorage::entry(KeyId key) {
  ensure(key < entries_.size(), "stable-storage key id out of range");
  return entries_[key];
}

const StableStorage::Entry& StableStorage::entry(KeyId key) const {
  ensure(key < entries_.size(), "stable-storage key id out of range");
  return entries_[key];
}

void StableStorage::put(KeyId key, const std::uint8_t* data,
                        std::size_t size) {
  ++writes_;
  bytes_written_ += size;
  Entry& e = entry(key);
  e.has_value = true;
  e.value.assign(data, data + size);
}

void StableStorage::append(KeyId key, const std::uint8_t* data,
                           std::size_t size) {
  ++writes_;
  ++appends_;
  bytes_written_ += size;
  Entry& e = entry(key);
  e.log.insert(e.log.end(), data, data + size);
  ++e.log_records;
}

const std::vector<std::uint8_t>* StableStorage::value(KeyId key) const {
  const Entry& e = entry(key);
  return e.has_value ? &e.value : nullptr;
}

const std::vector<std::uint8_t>& StableStorage::log(KeyId key) const {
  return entry(key).log;
}

std::uint64_t StableStorage::log_records(KeyId key) const {
  return entry(key).log_records;
}

std::size_t StableStorage::log_bytes(KeyId key) const {
  return entry(key).log.size();
}

void StableStorage::truncate_log(KeyId key) {
  Entry& e = entry(key);
  e.log.clear();
  e.log_records = 0;
}

void StableStorage::destroy() {
  for (Entry& e : entries_) {
    e.has_value = false;
    e.value.clear();
    e.log.clear();
    e.log_records = 0;
  }
  destroyed_ = true;
}

std::size_t StableStorage::entry_count() const noexcept {
  std::size_t n = 0;
  for (const Entry& e : entries_) {
    if (e.has_value || !e.log.empty()) ++n;
  }
  return n;
}

}  // namespace dynvote::sim
