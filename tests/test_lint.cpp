// Tests for tools/lint: every mmhand_lint rule against violation and
// clean fixtures, allowlist handling, the --json report shape, the
// common/json error paths the linter's config loading leans on, and
// both gates run over the real tree with the repo's own allowlists.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lint/lint_core.hpp"
#include "lint/purity_core.hpp"
#include "mmhand/common/json.hpp"

namespace mmhand::lint {
namespace {

/// True when some finding carries `rule`.
bool has_rule(const std::vector<Finding>& findings, const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

/// The repo's lint config (scripts/lint_allowlist.json + README.md),
/// loaded the way mmhand_lint loads it.
const Config& repo_config() {
  static const Config cfg = [] {
    Config c;
    std::string error;
    EXPECT_TRUE(load_lint_config(LINT_REPO_ROOT, &c, &error)) << error;
    return c;
  }();
  return cfg;
}

std::vector<Finding> lint_src(const std::string& content,
                              const std::string& path = "src/mmhand/x/f.cpp") {
  return check_file(path, content, repo_config());
}

// --- getenv-allowlist ---------------------------------------------------

TEST(LintGetenv, FlagsGetenvOutsideAllowlist) {
  const auto findings =
      lint_src("const char* e = std::getenv(\"PATH\");\n");
  ASSERT_TRUE(has_rule(findings, "getenv-allowlist"));
  EXPECT_EQ(findings[0].line, 1);
}

TEST(LintGetenv, AllowsAllowlistedFile) {
  const auto findings = check_file("src/mmhand/obs/state.cpp",
                                   "std::getenv(\"X\");\n",
                                   repo_config());
  EXPECT_FALSE(has_rule(findings, "getenv-allowlist"));
}

TEST(LintGetenv, IgnoresCommentsAndStrings) {
  EXPECT_TRUE(lint_src("// getenv here\n"
                       "const char* s = \"getenv\";\n")
                  .empty());
}

TEST(LintGetenv, DoesNotApplyOutsideLibrary) {
  EXPECT_TRUE(check_file("tests/test_x.cpp", "std::getenv(\"X\");\n",
                         repo_config())
                  .empty());
}

// --- no-direct-io -------------------------------------------------------

TEST(LintDirectIo, FlagsPrintfCoutCerr) {
  EXPECT_TRUE(has_rule(lint_src("std::printf(\"x\");\n"), "no-direct-io"));
  EXPECT_TRUE(has_rule(lint_src("std::cout << 1;\n"), "no-direct-io"));
  EXPECT_TRUE(has_rule(lint_src("std::cerr << 1;\n"), "no-direct-io"));
  EXPECT_TRUE(
      has_rule(lint_src("std::fprintf(stderr, \"x\");\n"), "no-direct-io"));
}

TEST(LintDirectIo, AllowsBufferFormattingAndFileIo) {
  // snprintf/vsnprintf format into buffers; fprintf to a data FILE* is
  // legitimate output, only console streams are banned.
  EXPECT_TRUE(lint_src("std::snprintf(buf, sizeof(buf), \"%d\", 1);\n"
                       "std::vsnprintf(buf, sizeof(buf), fmt, args);\n"
                       "std::fprintf(file, \"%d\", 1);\n"
                       "std::fwrite(data, 1, n, file);\n")
                  .empty());
}

TEST(LintDirectIo, ExemptsObsAndSanctionedPrinters) {
  const std::string io = "std::fprintf(stderr, \"x\");\n";
  EXPECT_FALSE(has_rule(
      check_file("src/mmhand/obs/log.cpp", io, repo_config()),
      "no-direct-io"));
  EXPECT_FALSE(has_rule(check_file("src/mmhand/eval/table_printer.cpp",
                                   "std::printf(\"x\");\n",
                                   repo_config()),
                        "no-direct-io"));
}

// --- no-unseeded-rng ----------------------------------------------------

TEST(LintRng, FlagsRawRandomSources) {
  EXPECT_TRUE(has_rule(lint_src("int r = rand();\n"), "no-unseeded-rng"));
  EXPECT_TRUE(has_rule(lint_src("std::random_device rd;\n"),
                       "no-unseeded-rng"));
  EXPECT_TRUE(has_rule(lint_src("srand(time(nullptr));\n"),
                       "no-unseeded-rng"));
  EXPECT_TRUE(has_rule(lint_src("auto seed = std::time(NULL);\n"),
                       "no-unseeded-rng"));
}

TEST(LintRng, CleanOnSeededRngAndSimilarNames) {
  EXPECT_TRUE(lint_src("mmhand::Rng rng(42);\n"
                       "double x = rng.uniform(0.0, 1.0);\n"
                       "int operand = 3;\n"   // "rand" inside identifiers
                       "double wall_time = t1 - t0;\n")
                  .empty());
}

TEST(LintRng, AppliesToRngImplementation) {
  // No file is exempt: common/rng itself is seeded explicitly.
  EXPECT_TRUE(has_rule(check_file("src/mmhand/common/rng.cpp",
                                  "std::random_device rd;\n", repo_config()),
                       "no-unseeded-rng"));
}

// --- header hygiene -----------------------------------------------------

TEST(LintHeader, FlagsMissingPragmaOnce) {
  const auto findings =
      check_file("src/mmhand/x/f.hpp", "int f();\n", repo_config());
  EXPECT_TRUE(has_rule(findings, "pragma-once"));
}

TEST(LintHeader, FlagsUsingNamespace) {
  const auto findings = check_file(
      "src/mmhand/x/f.hpp", "#pragma once\nusing namespace std;\n",
      repo_config());
  EXPECT_TRUE(has_rule(findings, "no-using-namespace"));
  EXPECT_EQ(findings[0].line, 2);
}

TEST(LintHeader, CleanHeaderPasses) {
  EXPECT_TRUE(check_file("src/mmhand/x/f.hpp",
                         "#pragma once\n"
                         "// using namespace in a comment is fine\n"
                         "using Alias = int;\n"
                         "int f();\n",
                         repo_config())
                  .empty());
}

TEST(LintHeader, SourceFilesNeedNoPragma) {
  EXPECT_TRUE(check_file("src/mmhand/x/f.cpp", "int f() { return 1; }\n",
                         repo_config())
                  .empty());
}

// --- no-raw-alloc -------------------------------------------------------

TEST(LintAlloc, FlagsNakedArrayNewAndMalloc) {
  EXPECT_TRUE(has_rule(lint_src("float* xs = new float[n];\n"),
                       "no-raw-alloc"));
  EXPECT_TRUE(has_rule(lint_src("auto* p = new std::uint8_t[64];\n"),
                       "no-raw-alloc"));
  EXPECT_TRUE(has_rule(lint_src("void* p = malloc(64);\n"), "no-raw-alloc"));
}

TEST(LintAlloc, AllowsContainersAndScalarNew) {
  EXPECT_TRUE(lint_src("std::vector<float> xs(n);\n"
                       "auto p = std::make_unique<Foo>();\n"
                       "auto* q = new Foo(1, 2);\n")
                  .empty());
}

// --- simd-confinement ---------------------------------------------------

TEST(LintSimd, FlagsIntrinsicsHeaderOutsideSimdLayer) {
  EXPECT_TRUE(has_rule(lint_src("#include <immintrin.h>\n"),
                       "simd-confinement"));
  EXPECT_TRUE(has_rule(lint_src("#include <arm_neon.h>\n",
                                "src/mmhand/dsp/fft.cpp"),
                       "simd-confinement"));
}

TEST(LintSimd, FlagsIntrinsicIdentifiersOutsideSimdLayer) {
  EXPECT_TRUE(has_rule(
      lint_src("__m256d v = _mm256_loadu_pd(p);\n"), "simd-confinement"));
  EXPECT_TRUE(has_rule(lint_src("auto v = vld1q_f64(p);\n"),
                       "simd-confinement"));
  EXPECT_TRUE(has_rule(lint_src("_mm_prefetch(p, _MM_HINT_T0);\n"),
                       "simd-confinement"));
}

TEST(LintSimd, AllowsIntrinsicsUnderSimdLayer) {
  const auto findings = check_file(
      "src/mmhand/simd/vec_avx2.hpp",
      "#pragma once\n#include <immintrin.h>\n"
      "inline __m256d f(const double* p) { return _mm256_loadu_pd(p); }\n",
      repo_config());
  EXPECT_FALSE(has_rule(findings, "simd-confinement"));
}

TEST(LintSimd, CleanOnDispatchTableCalls) {
  EXPECT_TRUE(lint_src("const auto& k = simd::kernels();\n"
                       "k.log1p_abs(re.data(), im.data(), out.data(), n);\n")
                  .empty());
}

// --- pmu-confinement ----------------------------------------------------

TEST(LintPmu, FlagsPerfEventHeadersOutsidePmuLayer) {
  EXPECT_TRUE(has_rule(lint_src("#include <linux/perf_event.h>\n"),
                       "pmu-confinement"));
  EXPECT_TRUE(has_rule(lint_src("#include <sys/syscall.h>\n",
                                "src/mmhand/obs/trace.cpp"),
                       "pmu-confinement"));
}

TEST(LintPmu, FlagsPerfEventIdentifiersOutsidePmuLayer) {
  EXPECT_TRUE(has_rule(
      lint_src("struct perf_event_attr attr = {};\n"), "pmu-confinement"));
  EXPECT_TRUE(has_rule(
      lint_src("long fd = syscall(SYS_perf_event_open, &a, 0, -1, g, 0);\n"),
      "pmu-confinement"));
}

TEST(LintPmu, AllowsPerfEventUnderPmuLayer) {
  const auto findings = check_file(
      "src/mmhand/obs/pmu.cpp",
      "#include <linux/perf_event.h>\n#include <sys/syscall.h>\n"
      "long open_leader(perf_event_attr* a) {\n"
      "  return syscall(SYS_perf_event_open, a, 0, -1, -1, 0);\n"
      "}\n",
      repo_config());
  EXPECT_FALSE(has_rule(findings, "pmu-confinement"));
}

TEST(LintPmu, CleanOnCommentsAndSubstrings) {
  // Comments are stripped before the rules run, and `syscall` must match
  // as a whole token, not inside another identifier.
  EXPECT_TRUE(lint_src("// perf_event_open is confined to obs/pmu\n"
                       "int raw_syscall_count = 0;\n")
                  .empty());
}

// --- durable-write ------------------------------------------------------

TEST(LintDurableWrite, FlagsBinaryWritersOutsideIoSafe) {
  EXPECT_TRUE(has_rule(
      lint_src("std::ofstream out(path, std::ios::binary);\n"),
      "durable-write"));
  EXPECT_TRUE(has_rule(
      lint_src("std::FILE* f = std::fopen(path.c_str(), \"wb\");\n"),
      "durable-write"));
  EXPECT_TRUE(has_rule(lint_src("auto* f = fopen(p, \"ab\");\n"),
                       "durable-write"));
}

TEST(LintDurableWrite, AllowsReadsTextAndIoSafeItself) {
  // Binary reads, text writes, and the durable layer itself stay legal.
  EXPECT_TRUE(lint_src("std::ifstream in(path, std::ios::binary);\n"
                       "std::ofstream log(path);\n"
                       "std::FILE* f = std::fopen(path.c_str(), \"rb\");\n"
                       "std::FILE* g = std::fopen(path.c_str(), \"a\");\n")
                  .empty());
  EXPECT_FALSE(has_rule(
      check_file("src/mmhand/common/io_safe.cpp",
                 "std::FILE* f = std::fopen(tmp.c_str(), \"wb\");\n",
                 repo_config()),
      "durable-write"));
}

TEST(LintDurableWrite, AllowlistExtendsViaJson) {
  Config cfg;
  std::string error;
  ASSERT_TRUE(parse_allowlist_json(
      "{\"durable_write\": [\"src/mmhand/x/f.cpp\"]}", &cfg, &error))
      << error;
  EXPECT_FALSE(has_rule(
      check_file("src/mmhand/x/f.cpp",
                 "std::FILE* f = std::fopen(p, \"wb\");\n", cfg),
      "durable-write"));
}

// --- env-var-docs -------------------------------------------------------

TEST(LintEnvDocs, FlagsUndocumentedLiteral) {
  Config cfg = repo_config();
  cfg.documented_env = {"MMHAND_THREADS"};
  const auto findings = check_file(
      "src/mmhand/x/f.cpp", "std::string k = \"MMHAND_NOT_IN_README\";\n",
      cfg);
  ASSERT_TRUE(has_rule(findings, "env-var-docs"));
  EXPECT_NE(findings[0].message.find("MMHAND_NOT_IN_README"),
            std::string::npos);
}

TEST(LintEnvDocs, DocumentedLiteralPasses) {
  Config cfg = repo_config();
  cfg.documented_env = {"MMHAND_THREADS"};
  EXPECT_TRUE(check_file("src/mmhand/x/f.cpp",
                         "const char* k = \"MMHAND_THREADS\";\n", cfg)
                  .empty());
}

TEST(LintEnvDocs, ExtractsNamesFromReadme) {
  const auto names = extract_documented_env(
      "| `MMHAND_THREADS` | integer | pool size |\n"
      "Set MMHAND_FAST=1 while iterating.\n");
  EXPECT_EQ(names, (std::vector<std::string>{"MMHAND_FAST",
                                             "MMHAND_THREADS"}));
}

// --- allowlist config ---------------------------------------------------

TEST(LintAllowlist, AbsentKeyIsEmpty) {
  Config cfg = repo_config();
  ASSERT_FALSE(cfg.io_allow.empty());
  std::string error;
  ASSERT_TRUE(parse_allowlist_json(
      "{\"getenv\": [\"src/mmhand/x/custom.cpp\"]}", &cfg, &error))
      << error;
  EXPECT_EQ(cfg.getenv_allow,
            (std::vector<std::string>{"src/mmhand/x/custom.cpp"}));
  // A parse replaces every list; keys the text lacks come out empty.
  EXPECT_TRUE(cfg.io_allow.empty());
  EXPECT_TRUE(cfg.durable_write_allow.empty());
  EXPECT_TRUE(cfg.raw_alloc_allow.empty());
  EXPECT_TRUE(
      check_file("src/mmhand/x/custom.cpp", "std::getenv(\"X\");\n", cfg)
          .empty());
  EXPECT_TRUE(has_rule(check_file("src/mmhand/obs/state.cpp",
                                  "std::getenv(\"X\");\n", cfg),
                       "getenv-allowlist"));
  EXPECT_TRUE(has_rule(check_file("src/mmhand/eval/table_printer.cpp",
                                  "std::printf(\"x\");\n", cfg),
                       "no-direct-io"));
}

TEST(LintAllowlist, RejectsMalformedConfig) {
  Config cfg;
  std::string error;
  EXPECT_FALSE(parse_allowlist_json("{\"getenv\": 3}", &cfg, &error));
  EXPECT_NE(error.find("getenv"), std::string::npos);
  EXPECT_FALSE(parse_allowlist_json("not json", &cfg, &error));
  EXPECT_FALSE(parse_allowlist_json("{\"direct_io\": [1]}", &cfg, &error));
}

// --- --json report shape ------------------------------------------------

TEST(LintJsonReport, ShapeRoundTripsThroughParser) {
  const std::vector<Finding> findings{
      {"src/mmhand/x/f.cpp", 3, "no-direct-io", "printf \"quoted\""},
      {"src/mmhand/x/f.cpp", 9, "no-direct-io", "cout"},
      {"src/mmhand/y/g.hpp", 1, "pragma-once", "missing"},
  };
  std::string error;
  const json::Value v =
      json::Value::parse(findings_to_json(findings, 42), &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(v.string_or("tool", ""), "mmhand_lint");
  EXPECT_EQ(v.number_or("files_scanned", 0), 42.0);
  const json::Value* counts = v.find("counts");
  ASSERT_NE(counts, nullptr);
  EXPECT_EQ(counts->number_or("no-direct-io", 0), 2.0);
  EXPECT_EQ(counts->number_or("pragma-once", 0), 1.0);
  const json::Value* arr = v.find("findings");
  ASSERT_NE(arr, nullptr);
  ASSERT_EQ(arr->as_array().size(), 3u);
  const json::Value& first = arr->as_array()[0];
  EXPECT_EQ(first.string_or("file", ""), "src/mmhand/x/f.cpp");
  EXPECT_EQ(first.number_or("line", 0), 3.0);
  EXPECT_EQ(first.string_or("message", ""), "printf \"quoted\"");
}

TEST(LintJsonReport, EmptyFindingsStillValid) {
  std::string error;
  const json::Value v = json::Value::parse(findings_to_json({}, 7), &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_NE(v.find("findings"), nullptr);
  EXPECT_TRUE(v.find("findings")->as_array().empty());
}

// --- comment/string stripping -------------------------------------------

TEST(LintStrip, PreservesLineStructure) {
  const std::string src = "int a; // getenv\n/* rand\n rand */ int b;\n";
  const std::string stripped = strip_comments_and_strings(src);
  EXPECT_EQ(std::count(src.begin(), src.end(), '\n'),
            std::count(stripped.begin(), stripped.end(), '\n'));
  EXPECT_EQ(stripped.find("getenv"), std::string::npos);
  EXPECT_EQ(stripped.find("rand"), std::string::npos);
  EXPECT_NE(stripped.find("int b;"), std::string::npos);
}

TEST(LintStrip, HandlesEscapedQuotes) {
  const std::string stripped = strip_comments_and_strings(
      "const char* s = \"a \\\" getenv\"; int rand_site;\n");
  EXPECT_EQ(stripped.find("getenv"), std::string::npos);
  EXPECT_NE(stripped.find("rand_site"), std::string::npos);
}

// --- common/json error paths (the linter's config dependency) -----------

TEST(JsonErrors, TruncatedInput) {
  for (const char* bad : {"{\"a\": ", "[1, 2", "\"unterminated", "{", "nul"}) {
    std::string error;
    const json::Value v = json::Value::parse(bad, &error);
    EXPECT_FALSE(error.empty()) << "input: " << bad;
    EXPECT_TRUE(v.is_null()) << "input: " << bad;
  }
}

TEST(JsonErrors, BadEscape) {
  std::string error;
  json::Value::parse("\"bad \\q escape\"", &error);
  EXPECT_NE(error.find("escape"), std::string::npos);
  json::Value::parse("\"short \\u12\"", &error);
  EXPECT_FALSE(error.empty());
  json::Value::parse("\"bad hex \\uZZZZ\"", &error);
  EXPECT_FALSE(error.empty());
}

TEST(JsonErrors, TrailingGarbage) {
  std::string error;
  json::Value::parse("{\"a\": 1} extra", &error);
  EXPECT_NE(error.find("trailing"), std::string::npos);
  // Trailing whitespace is fine.
  const json::Value v = json::Value::parse("{\"a\": 1}  \n", &error);
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_EQ(v.number_or("a", 0), 1.0);
}

TEST(JsonErrors, ErrorReportsOffset) {
  std::string error;
  json::Value::parse("{\"a\": @}", &error);
  EXPECT_NE(error.find("offset"), std::string::npos);
}

// --- tokenizer: raw strings ---------------------------------------------

TEST(LintStrip, BlanksRawStringContents) {
  const std::string stripped = strip_comments_and_strings(
      "const char* s = R\"(std::getenv(\"PATH\") and rand())\";\n"
      "int keep_me;\n");
  EXPECT_EQ(stripped.find("getenv"), std::string::npos);
  EXPECT_EQ(stripped.find("rand"), std::string::npos);
  EXPECT_NE(stripped.find("keep_me"), std::string::npos);
  EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'), 2);
}

TEST(LintStrip, RawStringQuoteDoesNotDesyncLexer) {
  // The classic raw-string trap: `R"(")"` holds a lone quote.  A lexer
  // without raw-string states pairs that inner quote with the closing
  // one and swallows the *next* statement as string text — hiding the
  // getenv call below from every rule.
  const std::string src =
      "const char* s = R\"(\")\";\n"
      "std::getenv(\"PATH\");\n";
  EXPECT_NE(strip_comments_and_strings(src).find("getenv"),
            std::string::npos);
  EXPECT_TRUE(has_rule(lint_src(src), "getenv-allowlist"));
}

TEST(LintStrip, RawStringDelimitersAndPrefixes) {
  // Custom delimiter: an embedded `)"` is content, not a terminator.
  const std::string custom = strip_comments_and_strings(
      "auto s = R\"x(inner )\" quote rand())x\"; int after;\n");
  EXPECT_EQ(custom.find("rand"), std::string::npos);
  EXPECT_NE(custom.find("after"), std::string::npos);
  // Encoding prefixes reach the same state.
  EXPECT_EQ(strip_comments_and_strings("auto s = u8R\"(rand())\";\n")
                .find("rand"),
            std::string::npos);
  // An identifier merely ending in R is not a raw-string prefix.
  EXPECT_NE(strip_comments_and_strings("int VAR = f(\"x\");\n").find("VAR"),
            std::string::npos);
}

TEST(LintStrip, MultiLineRawStringKeepsLineNumbers) {
  const std::string src =
      "auto s = R\"(line one\nline two rand())\";\nstd::getenv(\"P\");\n";
  const auto findings = lint_src(src);
  ASSERT_TRUE(has_rule(findings, "getenv-allowlist"));
  EXPECT_EQ(findings[0].line, 3);
}

// --- tokenizer: line-continuation comments ------------------------------

TEST(LintStrip, BackslashContinuationExtendsLineComment) {
  // A trailing backslash splices the next line into the comment
  // (translation phase 2 runs before comment removal), so the getenv
  // "call" below is comment text, not code.
  EXPECT_TRUE(lint_src("// disabled: \\\nstd::getenv(\"PATH\");\n").empty());
  // Without the backslash the same layout is a real call.
  EXPECT_TRUE(has_rule(lint_src("// disabled:\nstd::getenv(\"PATH\");\n"),
                       "getenv-allowlist"));
}

TEST(LintStrip, ContinuationChainsAcrossLines) {
  EXPECT_TRUE(
      lint_src("// a \\\n b \\\n std::system(\"rm\");\nint ok;\n").empty());
}

// --- raw-alloc allowlist ------------------------------------------------

TEST(LintAlloc, InterposerFileIsExemptFromRawAlloc) {
  const std::string src = "void* p = std::malloc(n);\n";
  EXPECT_TRUE(has_rule(lint_src(src), "no-raw-alloc"));
  EXPECT_FALSE(has_rule(
      check_file("src/mmhand/obs/alloc.cpp", src, repo_config()),
      "no-raw-alloc"));
}

TEST(LintAlloc, RawAllocAllowlistExtendsViaJson) {
  Config cfg;
  std::string error;
  ASSERT_TRUE(parse_allowlist_json(
      "{\"raw_alloc\": [\"src/mmhand/x/pool.cpp\"]}", &cfg, &error))
      << error;
  EXPECT_FALSE(has_rule(
      check_file("src/mmhand/x/pool.cpp", "std::malloc(8);\n", cfg),
      "no-raw-alloc"));
}

// --- purity analyzer ----------------------------------------------------

using Files = std::vector<std::pair<std::string, std::string>>;

PurityReport purity(const Files& files, PurityConfig cfg = {}) {
  return analyze_purity(files, cfg);
}

/// The single root of a one-root report.
const PurityRoot& only_root(const PurityReport& r) {
  EXPECT_EQ(r.roots.size(), 1u);
  return r.roots.front();
}

TEST(Purity, FlagsHeapAllocWithCallChain) {
  const auto report = purity({{"src/mmhand/x/a.cpp",
                               "namespace mmhand::x {\n"
                               "void helper(std::vector<int>& v) {\n"
                               "  v.push_back(1);\n"
                               "}\n"
                               "MMHAND_REALTIME void hot() {\n"
                               "  std::vector<int> v;\n"
                               "  helper(v);\n"
                               "}\n"
                               "}\n"}});
  const PurityRoot& root = only_root(report);
  EXPECT_EQ(root.name, "mmhand::x::hot");
  ASSERT_FALSE(root.hits.empty());
  const PurityHit& hit = root.hits.front();
  EXPECT_EQ(hit.category, "heap-alloc");
  EXPECT_EQ(hit.token, "push_back");
  EXPECT_EQ(hit.function, "mmhand::x::helper");
  EXPECT_EQ(hit.line, 3);
  ASSERT_EQ(hit.chain.size(), 2u);
  EXPECT_EQ(hit.chain[0], "mmhand::x::hot");
  EXPECT_EQ(hit.chain[1], "mmhand::x::helper");
  EXPECT_FALSE(purity_clean(report));
}

TEST(Purity, FlagsNewExpressionInRootItself) {
  const auto report = purity(
      {{"src/mmhand/x/a.cpp",
        "MMHAND_REALTIME int* hot() { return new int(3); }\n"}});
  const PurityRoot& root = only_root(report);
  ASSERT_EQ(root.hits.size(), 1u);
  EXPECT_EQ(root.hits[0].category, "heap-alloc");
  EXPECT_EQ(root.hits[0].token, "new");
  EXPECT_EQ(root.hits[0].chain.size(), 1u);
}

TEST(Purity, FlagsLocks) {
  const auto report = purity({{"src/mmhand/x/a.cpp",
                               "void guard() {\n"
                               "  std::lock_guard<std::mutex> lk(mu);\n"
                               "}\n"
                               "MMHAND_REALTIME void hot() { guard(); }\n"}});
  const PurityRoot& root = only_root(report);
  ASSERT_FALSE(root.hits.empty());
  EXPECT_EQ(root.hits[0].category, "lock");
  EXPECT_EQ(root.hits[0].function, "guard");
}

TEST(Purity, FlagsThrow) {
  const auto report = purity(
      {{"src/mmhand/x/a.cpp",
        "void fail() { throw std::runtime_error(\"x\"); }\n"
        "MMHAND_REALTIME void hot() { fail(); }\n"}});
  ASSERT_FALSE(only_root(report).hits.empty());
  EXPECT_EQ(only_root(report).hits[0].category, "throw");
  EXPECT_EQ(only_root(report).hits[0].token, "throw");
}

TEST(Purity, FlagsIoAndSyscalls) {
  const auto io = purity(
      {{"src/mmhand/x/a.cpp",
        "void log_it() { std::fprintf(stderr, \"x\"); }\n"
        "MMHAND_REALTIME void hot() { log_it(); }\n"}});
  ASSERT_FALSE(only_root(io).hits.empty());
  EXPECT_EQ(only_root(io).hits[0].category, "io");

  const auto sys = purity(
      {{"src/mmhand/x/a.cpp",
        "void pause_it() { std::this_thread::sleep_for(ms); }\n"
        "MMHAND_REALTIME void hot() { pause_it(); }\n"}});
  ASSERT_FALSE(only_root(sys).hits.empty());
  EXPECT_EQ(only_root(sys).hits[0].category, "syscall");
  EXPECT_EQ(only_root(sys).hits[0].token, "sleep_for");
}

TEST(Purity, ChainsSpanFiles) {
  const auto report = purity(
      {{"src/mmhand/x/a.cpp",
        "MMHAND_REALTIME void hot() { mid(); }\n"},
       {"src/mmhand/x/b.cpp", "void mid() { deep(); }\n"},
       {"src/mmhand/x/c.cpp", "void deep() { malloc(8); }\n"}});
  const PurityRoot& root = only_root(report);
  ASSERT_FALSE(root.hits.empty());
  const PurityHit& hit = root.hits.front();
  EXPECT_EQ(hit.file, "src/mmhand/x/c.cpp");
  ASSERT_EQ(hit.chain.size(), 3u);
  EXPECT_EQ(hit.chain[1], "mid");
  EXPECT_EQ(hit.chain[2], "deep");
}

TEST(Purity, AuditedFunctionsAreOpaque) {
  const Files files = {{"src/mmhand/x/a.cpp",
                        "namespace mmhand::x {\n"
                        "float* scratch(std::size_t n) {\n"
                        "  static thread_local std::vector<float> v;\n"
                        "  if (v.size() < n) v.resize(n);\n"
                        "  return v.data();\n"
                        "}\n"
                        "MMHAND_REALTIME void hot() { scratch(16); }\n"
                        "}\n"}};
  EXPECT_FALSE(purity_clean(purity(files)));

  PurityConfig cfg;
  cfg.audited.push_back({"x::scratch", "grow-on-demand scratch"});
  const auto report = purity(files, cfg);
  EXPECT_TRUE(purity_clean(report));
  EXPECT_EQ(only_root(report).audited, 1u);
}

TEST(Purity, AuditedRootIsStillScanned) {
  // Auditing prunes traversal *into* a function reached from a root; a
  // root's own body is always scanned.
  PurityConfig cfg;
  cfg.audited.push_back({"hot", "should not exempt the root itself"});
  const auto report = purity(
      {{"src/mmhand/x/a.cpp",
        "MMHAND_REALTIME void hot() { malloc(8); }\n"}},
      cfg);
  EXPECT_FALSE(purity_clean(report));
}

TEST(Purity, AmbiguousTerminalsDoNotResolve) {
  // `state.load(...)` must not edge into an unrelated impure `load`.
  const auto report = purity(
      {{"src/mmhand/x/a.cpp",
        "MMHAND_REALTIME int hot() { return g_state.load(); }\n"},
       {"src/mmhand/x/b.cpp",
        "void CheckpointReader::load() { std::fopen(\"f\", \"r\"); }\n"}});
  EXPECT_TRUE(purity_clean(report));
  EXPECT_GE(report.unresolved_calls, 1u);
}

TEST(Purity, QualifiedCallsPreferExactMatch) {
  // Two `init` definitions; the qualified call resolves to ns_b only,
  // so ns_a's impure body stays out of the closure.
  const auto report = purity(
      {{"src/mmhand/x/a.cpp",
        "namespace ns_a { void init() { malloc(8); } }\n"
        "namespace ns_b { void init() { } }\n"
        "MMHAND_REALTIME void hot() { ns_b::init(); }\n"}});
  EXPECT_TRUE(purity_clean(report));
}

TEST(Purity, MacroBodiesJoinTheGraph) {
  const auto report = purity(
      {{"src/mmhand/x/a.hpp",
        "#define X_FAIL(msg) \\\n"
        "  do { throw std::runtime_error(msg); } while (0)\n"},
       {"src/mmhand/x/a.cpp",
        "MMHAND_REALTIME void hot() { X_FAIL(\"boom\"); }\n"}});
  const PurityRoot& root = only_root(report);
  ASSERT_FALSE(root.hits.empty());
  EXPECT_EQ(root.hits[0].category, "throw");
  EXPECT_EQ(root.hits[0].function, "X_FAIL");
  EXPECT_EQ(root.hits[0].file, "src/mmhand/x/a.hpp");
}

TEST(Purity, CommentsStringsAndRawStringsAreInvisible) {
  const auto report = purity(
      {{"src/mmhand/x/a.cpp",
        "MMHAND_REALTIME void hot() {\n"
        "  // malloc(8) would be bad here\n"
        "  const char* s = \"malloc\";\n"
        "  const char* r = R\"(throw new std::mutex)\";\n"
        "  use(s, r);\n"
        "}\n"}});
  EXPECT_TRUE(purity_clean(report));
}

TEST(Purity, CleanTreeReportsRootsAndCounts) {
  const auto report = purity(
      {{"src/mmhand/x/a.cpp",
        "int square(int v) { return v * v; }\n"
        "MMHAND_REALTIME int hot(int v) { return square(v); }\n"}});
  EXPECT_TRUE(purity_clean(report));
  const PurityRoot& root = only_root(report);
  EXPECT_EQ(root.reachable, 2u);
  EXPECT_EQ(root.line, 2);
  EXPECT_EQ(report.functions_indexed, 2u);
  EXPECT_EQ(report.files_scanned, 1u);
}

TEST(Purity, AllowlistJsonParsing) {
  PurityConfig cfg;
  std::string error;
  ASSERT_TRUE(parse_purity_allowlist_json(
      "{\"audited\": [{\"function\": \"x::f\", \"reason\": \"why\"}]}",
      &cfg, &error))
      << error;
  ASSERT_EQ(cfg.audited.size(), 1u);
  EXPECT_EQ(cfg.audited[0].function, "x::f");
  EXPECT_EQ(cfg.audited[0].reason, "why");
  // An absent key is an empty list, not "keep what was there".
  ASSERT_TRUE(parse_purity_allowlist_json("{}", &cfg, &error)) << error;
  EXPECT_TRUE(cfg.audited.empty());

  EXPECT_FALSE(parse_purity_allowlist_json("{\"audited\": [{}]}",
                                           &cfg, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(parse_purity_allowlist_json("not json", &cfg, &error));
}

TEST(Purity, JsonReportShape) {
  const auto report = purity(
      {{"src/mmhand/x/a.cpp",
        "void leak() { malloc(8); }\n"
        "MMHAND_REALTIME void hot() { leak(); }\n"}});
  std::string error;
  const json::Value v = json::Value::parse(purity_to_json(report), &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(v.string_or("tool", ""), "mmhand_purity");
  EXPECT_EQ(v.number_or("total_hits", 0), 1.0);
  const json::Value* roots = v.find("roots");
  ASSERT_NE(roots, nullptr);
  ASSERT_TRUE(roots->is_array());
  ASSERT_EQ(roots->as_array().size(), 1u);
  const json::Value& root = roots->as_array()[0];
  EXPECT_EQ(root.string_or("root", ""), "hot");
  const json::Value* hits = root.find("hits");
  ASSERT_NE(hits, nullptr);
  ASSERT_EQ(hits->as_array().size(), 1u);
  EXPECT_EQ(hits->as_array()[0].string_or("category", ""), "heap-alloc");
}

// --- both gates over the real tree -------------------------------------

/// The tree both gates scan, read the way mmhand_lint reads it.
const Sources& repo_sources(Gate gate) {
  const auto read = [](Gate g) {
    Sources sources;
    std::string error;
    EXPECT_TRUE(read_sources(LINT_REPO_ROOT, g, {}, &sources, &error))
        << error;
    return sources;
  };
  static const Sources lint = read(Gate::kLint);
  static const Sources purity = read(Gate::kPurity);
  return gate == Gate::kLint ? lint : purity;
}

PurityConfig repo_purity_config() {
  PurityConfig cfg;
  std::string error;
  EXPECT_TRUE(load_purity_config(LINT_REPO_ROOT, &cfg, &error)) << error;
  return cfg;
}

TEST(RepoGates, BothGatesAreCleanWithTheShippedAllowlists) {
  ASSERT_FALSE(repo_sources(Gate::kLint).empty());
  for (const Finding& f : check_sources(repo_sources(Gate::kLint),
                                        repo_config()))
    ADD_FAILURE() << f.file << ":" << f.line << ": " << f.rule << ": "
                  << f.message;
  const PurityReport report =
      analyze_purity(repo_sources(Gate::kPurity), repo_purity_config());
  EXPECT_FALSE(report.roots.empty());
  for (const PurityRoot& root : report.roots)
    for (const PurityHit& hit : root.hits)
      ADD_FAILURE() << hit.file << ":" << hit.line << ": purity-"
                    << hit.category << ": " << hit.token << " via "
                    << root.name;
}

TEST(RepoGates, EveryLintAllowlistEntryIsNeeded) {
  const Config& full = repo_config();
  using List = std::vector<std::string> Config::*;
  for (const List list : {&Config::getenv_allow, &Config::io_allow,
                          &Config::durable_write_allow,
                          &Config::raw_alloc_allow}) {
    ASSERT_FALSE((full.*list).empty());
    for (std::size_t i = 0; i < (full.*list).size(); ++i) {
      Config cfg = full;
      const std::string entry = (cfg.*list)[i];
      (cfg.*list).erase((cfg.*list).begin() +
                        static_cast<std::ptrdiff_t>(i));
      const auto findings = check_sources(repo_sources(Gate::kLint), cfg);
      EXPECT_TRUE(std::any_of(findings.begin(), findings.end(),
                              [&](const Finding& f) {
                                return f.file == entry;
                              }))
          << entry << " is in scripts/lint_allowlist.json but no file"
          << " needs it";
    }
  }
}

TEST(RepoGates, EveryAuditedPurityEntryIsNeeded) {
  const PurityConfig full = repo_purity_config();
  ASSERT_FALSE(full.audited.empty());
  for (std::size_t i = 0; i < full.audited.size(); ++i) {
    PurityConfig cfg = full;
    cfg.audited.erase(cfg.audited.begin() + static_cast<std::ptrdiff_t>(i));
    EXPECT_FALSE(
        purity_clean(analyze_purity(repo_sources(Gate::kPurity), cfg)))
        << full.audited[i].function
        << " is in scripts/purity_allowlist.json but guards nothing";
  }
}

TEST(RepoGates, OverlappingTargetsReadEachFileOnce) {
  // The paths read_sources returns; contents follow the paths.
  const auto paths = [](Gate gate, const std::vector<std::string>& targets) {
    Sources sources;
    std::string error;
    EXPECT_TRUE(read_sources(LINT_REPO_ROOT, gate, targets, &sources, &error))
        << error;
    std::vector<std::string> out;
    for (const auto& source : sources) out.push_back(source.first);
    return out;
  };
  const std::vector<std::string> src = paths(Gate::kLint, {"src"});
  ASSERT_FALSE(src.empty());
  EXPECT_EQ(paths(Gate::kLint, {"src/mmhand/serve", "src", "./src"}), src);
  EXPECT_EQ(paths(Gate::kLint, {"src/mmhand/serve/server.cpp", "src"}), src);
  EXPECT_EQ(paths(Gate::kPurity, {"src/mmhand/pose", "src/mmhand"}),
            paths(Gate::kPurity, {}));
}

TEST(RepoGates, MissingConfigFailsAndNamesTheFile) {
  const std::string root = ::testing::TempDir() + "mmhand_lint_no_root";
  Config cfg;
  PurityConfig pcfg;
  std::string error;
  EXPECT_FALSE(load_lint_config(root, &cfg, &error));
  EXPECT_NE(error.find("lint_allowlist.json"), std::string::npos) << error;
  error.clear();
  EXPECT_FALSE(load_purity_config(root, &pcfg, &error));
  EXPECT_NE(error.find("purity_allowlist.json"), std::string::npos)
      << error;
}

}  // namespace
}  // namespace mmhand::lint
