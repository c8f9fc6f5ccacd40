#include "stburst/stream/tokenizer.h"

#include <cctype>

#include "stburst/common/string_util.h"

namespace stburst {

std::vector<std::string> Tokenizer::SplitNormalize(std::string_view text) const {
  std::vector<std::string> out;
  std::string current;
  bool overlong = false;
  auto flush = [&]() {
    if (!overlong && !current.empty()) out.push_back(current);
    current.clear();
    overlong = false;
  };
  for (char raw : text) {
    // The unsigned-char cast keeps <cctype> defined for every byte value —
    // a negative plain char (any byte >= 0x80 on signed-char platforms) is
    // UB to pass to isalnum/tolower directly.
    unsigned char c = static_cast<unsigned char>(raw);
    if (std::isalnum(c)) {
      if (current.size() >= kMaxTokenLength) {
        // Keep scanning the run without accumulating it; the whole run is
        // dropped at the next separator.
        overlong = true;
      } else {
        current.push_back(static_cast<char>(std::tolower(c)));
      }
    } else {
      flush();
    }
  }
  flush();
  return out;
}

std::vector<TermId> Tokenizer::Tokenize(std::string_view text,
                                        Vocabulary* vocab) const {
  std::vector<TermId> out;
  for (const std::string& tok : SplitNormalize(text)) {
    out.push_back(vocab->Intern(tok));
  }
  return out;
}

std::vector<TermId> Tokenizer::TokenizeFrozen(std::string_view text,
                                              const Vocabulary& vocab) const {
  std::vector<TermId> out;
  for (const std::string& tok : SplitNormalize(text)) {
    TermId id = vocab.Lookup(tok);
    if (id != kInvalidTerm) out.push_back(id);
  }
  return out;
}

}  // namespace stburst
