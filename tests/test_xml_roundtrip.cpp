// Parse → write → parse round-trip guarantees of the XML substrate.
//
// Three layers:
//  - a property test over randomly generated documents (deterministic
//    xoshiro seeds, so failures reproduce): writing a document and parsing
//    the bytes back must restore the identical tree, and writing again must
//    produce the identical bytes (write∘parse is the identity on writer
//    output);
//  - a committed regression corpus (tests/corpus/): every valid document
//    must parse and round-trip, every invalid one must raise ParseError —
//    including the char-reference and DOCTYPE-quoting parser regressions;
//  - byte identity against the writer and parser the library replaced
//    (xml_oracle.hpp): the same text for every document and options, and
//    the same Document or the same ParseError text for every input,
//    mutated ones included.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "xml/dom.hpp"
#include "xml/parse.hpp"
#include "xml/write.hpp"
#include "xml_oracle.hpp"

namespace cx = choreo::xml;
namespace oracle = choreo::test::xml_oracle;
namespace cu = choreo::util;
namespace fs = std::filesystem;

namespace {

/// Random document generator.  Constraints keep generated trees inside the
/// writer's round-trippable domain: no whitespace-only text (dropped on
/// parse by default), no adjacent text nodes (merged on parse), no "--" in
/// comments and no "]]>" in CDATA (close their delimiters early).
class DocumentGenerator {
 public:
  explicit DocumentGenerator(std::uint64_t seed) : rng_(seed) {}

  cx::Document generate() {
    cx::Document document;
    document.set_root(element(0));
    return document;
  }

 private:
  static constexpr std::string_view kNameStart =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_";
  static constexpr std::string_view kNameRest =
      "abcdefghijklmnopqrstuvwxyz0123456789_-.:";
  // Attribute/text pools deliberately include every character the writer
  // escapes, plus multi-byte UTF-8 sequences (inserted atomically).
  static constexpr std::string_view kValueChars =
      "abcxyz 0123456789<>&\"'\n\t=;#[]()";
  static constexpr std::string_view kCommentChars =
      "abc xyz 0123456789 <>&";
  static constexpr std::string_view kCdataChars =
      "abc xyz 0123456789 <>&\"'";

  char pick(std::string_view pool) {
    return pool[static_cast<std::size_t>(rng_.below(pool.size()))];
  }

  std::string name() {
    std::string out;
    out.push_back(pick(kNameStart));
    const std::size_t extra = rng_.below(8);
    for (std::size_t i = 0; i < extra; ++i) out.push_back(pick(kNameRest));
    return out;
  }

  std::string value(std::string_view pool) {
    std::string out;
    const std::size_t length = rng_.below(24);
    for (std::size_t i = 0; i < length; ++i) {
      if (pool == kValueChars && rng_.below(12) == 0) {
        static constexpr std::string_view kUnicode[] = {
            "\xC3\xA9" /* é */, "\xE2\x82\xAC" /* € */,
            "\xF0\x9F\x98\x80" /* emoji */};
        out += kUnicode[rng_.below(3)];
      } else {
        out.push_back(pick(pool));
      }
    }
    return out;
  }

  std::string text() {
    // Guarantee a non-whitespace character so the default parse options
    // never classify the node as ignorable.
    return value(kValueChars) + pick(kNameStart);
  }

  cx::Node element(int depth) {
    cx::Node node = cx::Node::element(name());
    const std::size_t attribute_count = rng_.below(4);
    for (std::size_t a = 0; a < attribute_count; ++a) {
      // Indexed names sidestep the parser's duplicate-attribute rejection.
      node.set_attr(name() + std::to_string(a), value(kValueChars));
    }
    if (depth >= 4) return node;
    const std::size_t child_count = rng_.below(5);
    bool last_was_text = false;
    for (std::size_t c = 0; c < child_count; ++c) {
      switch (rng_.below(last_was_text ? 3 : 4)) {
        case 0:
          node.add_child(element(depth + 1));
          last_was_text = false;
          break;
        case 1:
          node.add_child(cx::Node::comment(value(kCommentChars)));
          last_was_text = false;
          break;
        case 2:
          node.add_child(cx::Node::cdata(value(kCdataChars)));
          last_was_text = false;
          break;
        default:
          node.add_text(text());
          last_was_text = true;
          break;
      }
    }
    return node;
  }

  cu::Xoshiro256 rng_;
};

std::string read_file(const fs::path& path) {
  std::ifstream stream(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << stream.rdbuf();
  return buffer.str();
}

std::vector<fs::path> files_in(const fs::path& directory,
                               std::string_view extension = "") {
  std::vector<fs::path> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(directory)) {
    if (entry.is_regular_file() &&
        (extension.empty() || entry.path().extension() == extension)) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::vector<fs::path> corpus_files(const char* subdirectory) {
  return files_in(fs::path(CHOREO_CORPUS_DIR) / subdirectory);
}

/// The oracles' inputs: the corpus, valid and invalid, the XMI goldens and
/// the XMI models.
std::vector<fs::path> oracle_inputs() {
  std::vector<fs::path> files = corpus_files("valid");
  for (const fs::path& path : corpus_files("invalid")) files.push_back(path);
  for (const fs::path& path : files_in(CHOREO_GOLDEN_DIR, ".xmi")) {
    files.push_back(path);
  }
  for (const fs::path& path : files_in(CHOREO_MODELS_DIR, ".xmi")) {
    files.push_back(path);
  }
  return files;
}

/// What one parse gives: a document, or the text of its ParseError.
struct ParseOutcome {
  std::optional<cx::Document> document;
  std::string error;
};

template <typename Parse>
ParseOutcome outcome_of(Parse&& parse) {
  try {
    return {parse(), ""};
  } catch (const cu::ParseError& error) {
    return {std::nullopt, error.what()};
  }
}

bool same_declaration(const cx::Document& a, const cx::Document& b) {
  const auto& x = a.declaration();
  const auto& y = b.declaration();
  return std::equal(x.begin(), x.end(), y.begin(), y.end(),
                    [](const cx::Attribute& p, const cx::Attribute& q) {
                      return p.name == q.name && p.value == q.value;
                    });
}

void expect_same_outcome(const ParseOutcome& actual,
                         const ParseOutcome& expected,
                         const std::string& label) {
  EXPECT_EQ(actual.error, expected.error) << label;
  ASSERT_EQ(actual.document.has_value(), expected.document.has_value())
      << label;
  if (!expected.document) return;
  EXPECT_TRUE(actual.document->root().deep_equals(expected.document->root()))
      << label;
  EXPECT_TRUE(same_declaration(*actual.document, *expected.document)) << label;
}

/// Parses `input` with both parsers, keeping and dropping ignorable
/// whitespace, and expects the same outcome.
void expect_same_parse(std::string_view input, const std::string& label) {
  for (const bool drop : {true, false}) {
    cx::ParseOptions options;
    options.drop_ignorable_whitespace = drop;
    expect_same_outcome(
        outcome_of([&] { return cx::parse_document(input, options); }),
        outcome_of([&] { return oracle::parse_document(input, options); }),
        label + (drop ? "" : " (whitespace kept)"));
  }
}

/// `text` with one seeded mutation: cut short, or one `<`, `>`, `"`, `&`,
/// `;` or `=` dropped or doubled.  Returns nullopt when the text has no
/// occurrence of the character drawn.
std::optional<std::string> mutate(const std::string& text, cu::Xoshiro256& rng) {
  const std::size_t kind = rng.below(3);
  if (kind == 0) return text.substr(0, rng.below(text.size() + 1));
  static constexpr std::string_view kMarkup = "<>\"&;=";
  const char target = kMarkup[rng.below(kMarkup.size())];
  std::vector<std::size_t> at;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == target) at.push_back(i);
  }
  if (at.empty()) return std::nullopt;
  const std::size_t position = at[rng.below(at.size())];
  std::string mutated = text;
  if (kind == 1) {
    mutated.erase(position, 1);
  } else {
    mutated.insert(position, 1, target);
  }
  return mutated;
}

/// Every combination of indent 0 and 2, with and without the declaration.
std::vector<cx::WriteOptions> all_write_options() {
  std::vector<cx::WriteOptions> all;
  for (const int indent : {0, 2}) {
    for (const bool declaration : {false, true}) {
      cx::WriteOptions options;
      options.indent = indent;
      options.declaration = declaration;
      all.push_back(options);
    }
  }
  return all;
}

void expect_same_text(const cx::Document& document, const std::string& label) {
  for (const cx::WriteOptions& options : all_write_options()) {
    const std::string expected = oracle::to_string(document, options);
    EXPECT_EQ(cx::to_string(document, options), expected)
        << label << " indent " << options.indent << " declaration "
        << options.declaration;
    if (!options.declaration) {
      EXPECT_EQ(cx::to_string(document.root(), options), expected)
          << label << " (root node) indent " << options.indent;
    }
  }
}

}  // namespace

TEST(RoundTripProperty, WriteParseWriteIsStableOnRandomDocuments) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    DocumentGenerator generator(seed);
    const cx::Document original = generator.generate();

    const std::string rendered = cx::to_string(original);
    cx::Document reparsed;
    ASSERT_NO_THROW(reparsed = cx::parse_document(rendered))
        << "seed " << seed << "\n" << rendered;
    EXPECT_TRUE(original.root().deep_equals(reparsed.root()))
        << "seed " << seed << "\n" << rendered;
    EXPECT_EQ(cx::to_string(reparsed), rendered) << "seed " << seed;
  }
}

TEST(RoundTripProperty, CompactModeRoundTripsToo) {
  cx::WriteOptions compact;
  compact.indent = 0;
  compact.declaration = false;
  for (std::uint64_t seed = 100; seed <= 140; ++seed) {
    DocumentGenerator generator(seed);
    const cx::Document original = generator.generate();
    const std::string rendered = cx::to_string(original, compact);
    const cx::Document reparsed = cx::parse_document(rendered);
    EXPECT_TRUE(original.root().deep_equals(reparsed.root()))
        << "seed " << seed << "\n" << rendered;
    EXPECT_EQ(cx::to_string(reparsed, compact), rendered)
        << "seed " << seed;
  }
}

TEST(Corpus, ValidDocumentsParseAndRoundTrip) {
  const std::vector<fs::path> files = corpus_files("valid");
  ASSERT_FALSE(files.empty());
  for (const fs::path& path : files) {
    const std::string source = read_file(path);
    cx::Document document;
    ASSERT_NO_THROW(document = cx::parse_document(source))
        << path.filename();
    const std::string rendered = cx::to_string(document);
    cx::Document reparsed;
    ASSERT_NO_THROW(reparsed = cx::parse_document(rendered))
        << path.filename();
    EXPECT_TRUE(document.root().deep_equals(reparsed.root()))
        << path.filename();
    EXPECT_EQ(cx::to_string(reparsed), rendered) << path.filename();
  }
}

TEST(Corpus, InvalidDocumentsRaisePositionedParseErrors) {
  const std::vector<fs::path> files = corpus_files("invalid");
  ASSERT_FALSE(files.empty());
  for (const fs::path& path : files) {
    const std::string source = read_file(path);
    try {
      cx::parse_document(source);
      ADD_FAILURE() << path.filename() << ": expected ParseError";
    } catch (const cu::ParseError& error) {
      EXPECT_GE(error.line(), 1u) << path.filename();
      EXPECT_GE(error.column(), 1u) << path.filename();
    }
  }
}

TEST(WriterOracle, RandomDocumentsMatchTheStreamWriter) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    DocumentGenerator generator(seed);
    cx::Document document = generator.generate();
    // Half carry a declaration of their own, whose values need escaping.
    if (seed % 2 == 0) {
      document.set_declaration({{"version", "1.0"},
                                {"encoding", "UTF-8"},
                                {"note", "<a & \"b\"\n\t>"}});
    }
    expect_same_text(document, "seed " + std::to_string(seed));
  }
}

TEST(WriterOracle, CorpusGoldensAndModelsMatchTheStreamWriter) {
  std::size_t written = 0;
  for (const fs::path& path : oracle_inputs()) {
    const ParseOutcome parsed =
        outcome_of([&] { return cx::parse_document(read_file(path)); });
    if (!parsed.document) continue;
    expect_same_text(*parsed.document, path.filename().string());
    ++written;
  }
  EXPECT_GT(written, 10u);
}

TEST(ParserOracle, CorpusGoldensAndModelsMatchTheByteParser) {
  const std::vector<fs::path> files = oracle_inputs();
  ASSERT_GT(files.size(), 25u);
  for (const fs::path& path : files) {
    const std::string text = read_file(path);
    expect_same_parse(text, path.filename().string());
    // parse_file names the file in its errors and reads it whole.
    cx::ParseOptions named;
    named.source_name = path.string();
    expect_same_outcome(
        outcome_of([&] { return cx::parse_file(path.string()); }),
        outcome_of([&] { return oracle::parse_document(text, named); }),
        path.filename().string() + " (parse_file)");
  }
}

TEST(ParserOracle, MutatedInputsMatchTheByteParser) {
  std::vector<std::pair<std::string, std::string>> inputs;
  for (const fs::path& path : oracle_inputs()) {
    inputs.emplace_back(path.filename().string(), read_file(path));
  }
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    DocumentGenerator generator(seed);
    inputs.emplace_back("random seed " + std::to_string(seed),
                        cx::to_string(generator.generate()));
  }
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (std::size_t f = 0; f < inputs.size(); ++f) {
    const auto& [name, text] = inputs[f];
    cu::Xoshiro256 rng(0x7a11 + f);
    for (int m = 0; m < 60; ++m) {
      const std::optional<std::string> mutated = mutate(text, rng);
      if (!mutated) continue;
      expect_same_parse(*mutated, name + " mutation " + std::to_string(m));
      try {
        cx::parse_document(*mutated);
        ++parsed;
      } catch (const cu::ParseError&) {
        ++rejected;
      }
    }
  }
  // Both outcomes are exercised, not only one.
  EXPECT_GT(parsed, 100u);
  EXPECT_GT(rejected, 100u);
}
