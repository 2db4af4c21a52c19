#include "xml/tag_dictionary.h"

#include "common/bytes.h"

namespace csxa::xml {

TagId TagDictionary::Intern(std::string_view tag) {
  auto it = ids_.find(tag);
  if (it != ids_.end()) return it->second;
  TagId id = static_cast<TagId>(names_.size());
  names_.emplace_back(tag);
  ids_.emplace(names_.back(), id);
  return id;
}

bool TagDictionary::Lookup(const std::string& tag, TagId* id) const {
  auto it = ids_.find(tag);
  if (it == ids_.end()) return false;
  *id = it->second;
  return true;
}

namespace {

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  out->push_back(static_cast<uint8_t>(v >> 24));
  out->push_back(static_cast<uint8_t>(v >> 16));
  out->push_back(static_cast<uint8_t>(v >> 8));
  out->push_back(static_cast<uint8_t>(v));
}

bool GetU32(const uint8_t* data, size_t size, size_t* pos, uint32_t* v) {
  if (*pos + 4 > size) return false;
  *v = (static_cast<uint32_t>(data[*pos]) << 24) |
       (static_cast<uint32_t>(data[*pos + 1]) << 16) |
       (static_cast<uint32_t>(data[*pos + 2]) << 8) |
       static_cast<uint32_t>(data[*pos + 3]);
  *pos += 4;
  return true;
}

}  // namespace

std::vector<uint8_t> TagDictionary::Serialize() const {
  std::vector<uint8_t> out;
  PutU32(&out, static_cast<uint32_t>(names_.size()));
  for (const std::string& name : names_) {
    PutU32(&out, static_cast<uint32_t>(name.size()));
    out.insert(out.end(), name.begin(), name.end());
  }
  return out;
}

Result<TagDictionary> TagDictionary::Deserialize(const uint8_t* data,
                                                 size_t size,
                                                 size_t* consumed) {
  size_t pos = 0;
  uint32_t count = 0;
  if (!GetU32(data, size, &pos, &count)) {
    return Status::Corruption("tag dictionary: truncated count");
  }
  TagDictionary dict;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t len = 0;
    if (!GetU32(data, size, &pos, &len) || pos + len > size) {
      return Status::Corruption("tag dictionary: truncated entry");
    }
    dict.Intern(std::string(common::AsChars(data + pos, len)));
    pos += len;
  }
  if (consumed != nullptr) *consumed = pos;
  return dict;
}

}  // namespace csxa::xml
