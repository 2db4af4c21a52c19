#ifndef CSXA_XML_TAG_DICTIONARY_H_
#define CSXA_XML_TAG_DICTIONARY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace csxa::xml {

/// Identifier of a tag inside a TagDictionary.
using TagId = uint32_t;

/// Dictionary of distinct element names of a document (Section 4.1: the
/// structure is compressed against a dictionary of tags; all Skip-index
/// metadata is expressed in terms of dictionary entries).
class TagDictionary {
 public:
  TagDictionary() = default;

  /// Returns the id of `tag`, inserting it if new. Insertion order defines
  /// ids, which makes dictionaries deterministic for a given document.
  TagId Intern(std::string_view tag);

  /// Looks a tag up without inserting; returns false if absent.
  bool Lookup(const std::string& tag, TagId* id) const;

  /// Name for an id; id must be < size().
  const std::string& Name(TagId id) const { return names_[id]; }

  /// Number of distinct tags (the paper's Nt).
  size_t size() const { return names_.size(); }

  /// Serializes as `count` then length-prefixed names (byte aligned); the
  /// dictionary travels with the encrypted document and is small enough to
  /// be kept inside the SOE.
  std::vector<uint8_t> Serialize() const;
  static Result<TagDictionary> Deserialize(const uint8_t* data, size_t size,
                                           size_t* consumed);

  bool operator==(const TagDictionary& other) const {
    return names_ == other.names_;
  }

 private:
  /// Lets the map be probed with a string_view, without a std::string.
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>()(s);
    }
  };

  std::vector<std::string> names_;
  std::unordered_map<std::string, TagId, Hash, std::equal_to<>> ids_;
};

}  // namespace csxa::xml

#endif  // CSXA_XML_TAG_DICTIONARY_H_
