// Tests for stream/tokenizer.

#include "stburst/stream/tokenizer.h"

#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "stburst/common/random.h"

namespace stburst {
namespace {

TEST(Tokenizer, SplitsOnNonAlnumAndLowercases) {
  Vocabulary vocab;
  Tokenizer tok;
  auto ids = tok.Tokenize("Hello, World! 42 foo-bar", &vocab);
  ASSERT_EQ(ids.size(), 5u);
  EXPECT_EQ(vocab.TermOf(ids[0]), "hello");
  EXPECT_EQ(vocab.TermOf(ids[1]), "world");
  EXPECT_EQ(vocab.TermOf(ids[2]), "42");
  EXPECT_EQ(vocab.TermOf(ids[3]), "foo");
  EXPECT_EQ(vocab.TermOf(ids[4]), "bar");
}

TEST(Tokenizer, DuplicatesKeptForFrequency) {
  Vocabulary vocab;
  Tokenizer tok;
  auto ids = tok.Tokenize("gaza gaza ceasefire gaza", &vocab);
  ASSERT_EQ(ids.size(), 4u);
  EXPECT_EQ(ids[0], ids[1]);
  EXPECT_EQ(ids[0], ids[3]);
  EXPECT_NE(ids[0], ids[2]);
}

TEST(Tokenizer, TokenizeFrozenDropsUnknownWords) {
  Vocabulary vocab;
  Tokenizer tok;
  tok.Tokenize("swine flu pandemic", &vocab);
  size_t before = vocab.size();
  auto ids = tok.TokenizeFrozen("swine flu unknownword", vocab);
  EXPECT_EQ(ids.size(), 2u);
  EXPECT_EQ(vocab.size(), before);  // frozen: nothing interned
}

TEST(Tokenizer, EmptyAndPunctuationOnly) {
  Vocabulary vocab;
  Tokenizer tok;
  EXPECT_TRUE(tok.Tokenize("", &vocab).empty());
  EXPECT_TRUE(tok.Tokenize("..., --- !!!", &vocab).empty());
}

TEST(Tokenizer, OverlongRunsAreDroppedNotTruncated) {
  Vocabulary vocab;
  Tokenizer tok;
  std::string text = "ok " + std::string(1 << 20, 'a') + " fine";
  auto ids = tok.Tokenize(text, &vocab);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(vocab.TermOf(ids[0]), "ok");
  EXPECT_EQ(vocab.TermOf(ids[1]), "fine");
  // Dropped, not truncated: no 64-byte prefix was interned.
  EXPECT_EQ(vocab.Lookup(std::string(64, 'a')), kInvalidTerm);
}

TEST(Tokenizer, MaxTokenLengthBoundaryIsInclusive) {
  Vocabulary vocab;
  Tokenizer tok;
  const std::string kept(64, 'k');
  const std::string dropped(65, 'd');
  auto ids = tok.Tokenize(kept + " " + dropped + " abc", &vocab);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(vocab.TermOf(ids[0]), kept);
  EXPECT_EQ(vocab.TermOf(ids[1]), "abc");
}

TEST(Tokenizer, EveryByteValueIsSafe) {
  // All 256 byte values, embedded NUL included: bytes outside the ASCII
  // alphanumerics are separators, never UB (<cctype> with a negative plain
  // char is undefined — the ASan leg of CI would catch a regression here).
  std::string all_bytes;
  for (int b = 0; b < 256; ++b) all_bytes.push_back(static_cast<char>(b));
  Vocabulary vocab;
  Tokenizer tok;
  for (TermId id : tok.Tokenize(all_bytes, &vocab)) {
    for (char c : vocab.TermOf(id)) {
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)));
    }
  }
  EXPECT_TRUE(tok.Tokenize(std::string("\x80\xff\xfe\x01", 4), &vocab).empty());
  EXPECT_EQ(tok.Tokenize(std::string("a\0b", 3), &vocab).size(), 2u);
}

TEST(Tokenizer, RandomBinaryStreamsNeverProduceInvalidTokens) {
  // Fuzz-shaped: arbitrary binary garbage must yield only bounded,
  // lowercase alphanumeric tokens — and identical results via the frozen
  // path.
  Rng rng(97);
  Tokenizer tok;
  Vocabulary vocab;
  for (int trial = 0; trial < 50; ++trial) {
    std::string bytes;
    size_t len = rng.NextUint64(2048);
    for (size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.NextUint64(256)));
    }
    auto ids = tok.Tokenize(bytes, &vocab);
    for (TermId id : ids) {
      const std::string& term = vocab.TermOf(id);
      EXPECT_FALSE(term.empty());
      EXPECT_LE(term.size(), Tokenizer::kMaxTokenLength);
      for (char c : term) {
        EXPECT_FALSE(std::isupper(static_cast<unsigned char>(c)));
      }
    }
    EXPECT_EQ(tok.TokenizeFrozen(bytes, vocab), ids);
  }
}

}  // namespace
}  // namespace stburst
