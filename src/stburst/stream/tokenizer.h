// Text tokenization into interned terms.

#ifndef STBURST_STREAM_TOKENIZER_H_
#define STBURST_STREAM_TOKENIZER_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "stburst/stream/types.h"
#include "stburst/stream/vocabulary.h"

namespace stburst {

/// Splits text on non-alphanumeric characters, ASCII-lowercases each run,
/// and interns the runs into a vocabulary. Total on any byte stream: bytes
/// outside [0, 127] (invalid UTF-8, binary blobs, embedded NULs) are
/// ordinary non-alphanumeric separators — never UB, never an error — and
/// memory stays bounded by kMaxTokenLength per in-flight token.
class Tokenizer {
 public:
  /// Alphanumeric runs longer than this many bytes are dropped. A
  /// megabyte-long "word" in a hostile or binary input is garbage, not a
  /// term: dropping (rather than truncating) avoids aliasing distinct junk
  /// runs into one interned term, and the accumulator never grows past the
  /// bound however long the run is.
  static constexpr size_t kMaxTokenLength = 64;

  /// Tokenizes `text`, interning new terms into `*vocab`.
  std::vector<TermId> Tokenize(std::string_view text, Vocabulary* vocab) const;

  /// Tokenizes without interning: unseen terms are dropped. Useful for
  /// queries against a frozen index.
  std::vector<TermId> TokenizeFrozen(std::string_view text,
                                     const Vocabulary& vocab) const;

 private:
  std::vector<std::string> SplitNormalize(std::string_view text) const;
};

}  // namespace stburst

#endif  // STBURST_STREAM_TOKENIZER_H_
