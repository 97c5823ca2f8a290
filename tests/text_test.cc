// Tests for tokenization, the Porter stemmer (against the published
// algorithm's canonical examples), and query normalization / dedup keys.
#include <gtest/gtest.h>

#include "synth/topic_model.h"  // Pluralize
#include "text/normalize.h"
#include "text/porter_stemmer.h"
#include "text/tokenizer.h"

namespace simrankpp {
namespace {

TEST(TokenizerTest, SplitsAndLowercases) {
  EXPECT_EQ(TokenizeQuery("Digital-Camera  2x"),
            (std::vector<std::string>{"digital", "camera", "2x"}));
  EXPECT_EQ(TokenizeQuery("  CAMERA "), (std::vector<std::string>{"camera"}));
  EXPECT_TRUE(TokenizeQuery("").empty());
  EXPECT_TRUE(TokenizeQuery("!@#$").empty());
}

TEST(TokenizerTest, KeepsDigitsInsideTokens) {
  EXPECT_EQ(TokenizeQuery("mp3 player"),
            (std::vector<std::string>{"mp3", "player"}));
}

struct StemCase {
  const char* word;
  const char* stem;
};

// Without it gtest prints the struct's bytes, pointers included, into the
// test's listed name, which then changes with every address layout.
void PrintTo(const StemCase& stem_case, std::ostream* os) {
  *os << stem_case.word << "_" << stem_case.stem;
}

class PorterStemmerTest : public ::testing::TestWithParam<StemCase> {};

TEST_P(PorterStemmerTest, MatchesReference) {
  EXPECT_EQ(PorterStem(GetParam().word), GetParam().stem)
      << "word: " << GetParam().word;
}

// Canonical examples from Porter's 1980 paper, step by step, plus the
// vocabulary this project's dedup relies on.
INSTANTIATE_TEST_SUITE_P(
    PaperExamples, PorterStemmerTest,
    ::testing::Values(
        // Step 1a
        StemCase{"caresses", "caress"}, StemCase{"ponies", "poni"},
        StemCase{"ties", "ti"}, StemCase{"caress", "caress"},
        StemCase{"cats", "cat"},
        // Step 1b
        StemCase{"feed", "feed"}, StemCase{"agreed", "agre"},
        StemCase{"plastered", "plaster"}, StemCase{"bled", "bled"},
        StemCase{"motoring", "motor"}, StemCase{"sing", "sing"},
        StemCase{"conflated", "conflat"}, StemCase{"troubled", "troubl"},
        StemCase{"sized", "size"}, StemCase{"hopping", "hop"},
        StemCase{"tanned", "tan"}, StemCase{"falling", "fall"},
        StemCase{"hissing", "hiss"}, StemCase{"fizzed", "fizz"},
        StemCase{"failing", "fail"}, StemCase{"filing", "file"},
        // Step 1c
        StemCase{"happy", "happi"}, StemCase{"sky", "sky"},
        // Step 2
        StemCase{"relational", "relat"}, StemCase{"conditional", "condit"},
        StemCase{"rational", "ration"}, StemCase{"valenci", "valenc"},
        StemCase{"hesitanci", "hesit"}, StemCase{"digitizer", "digit"},
        StemCase{"conformabli", "conform"}, StemCase{"radicalli", "radic"},
        StemCase{"differentli", "differ"}, StemCase{"vileli", "vile"},
        StemCase{"analogousli", "analog"},
        StemCase{"vietnamization", "vietnam"},
        StemCase{"predication", "predic"}, StemCase{"operator", "oper"},
        StemCase{"feudalism", "feudal"},
        StemCase{"decisiveness", "decis"},
        StemCase{"hopefulness", "hope"},
        StemCase{"callousness", "callous"},
        StemCase{"formaliti", "formal"}, StemCase{"sensitiviti", "sensit"},
        StemCase{"sensibiliti", "sensibl"},
        // Step 3
        StemCase{"triplicate", "triplic"}, StemCase{"formative", "form"},
        StemCase{"formalize", "formal"}, StemCase{"electriciti", "electr"},
        StemCase{"electrical", "electr"}, StemCase{"hopeful", "hope"},
        StemCase{"goodness", "good"},
        // Step 4
        StemCase{"revival", "reviv"}, StemCase{"allowance", "allow"},
        StemCase{"inference", "infer"}, StemCase{"airliner", "airlin"},
        StemCase{"gyroscopic", "gyroscop"},
        StemCase{"adjustable", "adjust"}, StemCase{"defensible", "defens"},
        StemCase{"irritant", "irrit"}, StemCase{"replacement", "replac"},
        StemCase{"adjustment", "adjust"}, StemCase{"dependent", "depend"},
        StemCase{"adoption", "adopt"}, StemCase{"homologou", "homolog"},
        StemCase{"communism", "commun"}, StemCase{"activate", "activ"},
        StemCase{"angulariti", "angular"}, StemCase{"homologous", "homolog"},
        StemCase{"effective", "effect"}, StemCase{"bowdlerize", "bowdler"},
        // Step 5
        StemCase{"probate", "probat"}, StemCase{"rate", "rate"},
        StemCase{"cease", "ceas"}, StemCase{"controll", "control"},
        StemCase{"roll", "roll"}));

INSTANTIATE_TEST_SUITE_P(
    SponsoredSearchVocabulary, PorterStemmerTest,
    ::testing::Values(StemCase{"cameras", "camera"},
                      StemCase{"flowers", "flower"},
                      StemCase{"stores", "store"},
                      StemCase{"reviews", "review"},
                      StemCase{"deals", "deal"},
                      StemCase{"batteries", "batteri"},
                      StemCase{"battery", "batteri"},
                      StemCase{"laptops", "laptop"}));

TEST(PorterStemmerGeneralTest, ShortWordsUnchanged) {
  EXPECT_EQ(PorterStem("a"), "a");
  EXPECT_EQ(PorterStem("is"), "is");
  EXPECT_EQ(PorterStem(""), "");
}

TEST(PorterStemmerGeneralTest, SingularAndPluralAgree) {
  // Note "lens" is deliberately absent: classic Porter strips its final
  // "s" ("lens" -> "len" but "lenses" -> "lens"), a known quirk of the
  // original algorithm.
  for (const char* noun :
       {"camera", "store", "deal", "battery", "price", "box"}) {
    EXPECT_EQ(PorterStem(noun), PorterStem(Pluralize(noun)))
        << "noun: " << noun;
  }
}

// Pluralize lives in synth/topic_model.h; pull the declaration in here to
// keep the text-level agreement test local.
TEST(NormalizeTest, StemKeyIsOrderAndFormInvariant) {
  EXPECT_EQ(QueryStemKey("camera stores"), QueryStemKey("Store, Camera"));
  EXPECT_EQ(QueryStemKey("buy cameras"), QueryStemKey("camera buy"));
  EXPECT_NE(QueryStemKey("camera"), QueryStemKey("laptop"));
}

TEST(NormalizeTest, NormalizeQueryKeepsOrder) {
  EXPECT_EQ(NormalizeQuery("  Digital   CAMERA "), "digital camera");
  EXPECT_NE(NormalizeQuery("camera digital"), NormalizeQuery("digital camera"));
}

TEST(NormalizeTest, DuplicateDetection) {
  EXPECT_TRUE(AreDuplicateQueries("camera", "cameras"));
  EXPECT_TRUE(AreDuplicateQueries("camera store", "cameras stores"));
  EXPECT_FALSE(AreDuplicateQueries("camera", "camera store"));
  EXPECT_FALSE(AreDuplicateQueries("pc", "tv"));
}

}  // namespace
}  // namespace simrankpp
