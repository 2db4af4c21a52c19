#ifndef CSXA_TESTS_TESTING_H_
#define CSXA_TESTS_TESTING_H_

// Minimal test harness: TEST(name) registers a function; CHECK* macros
// record failures without aborting the test; main() runs every registered
// test and exits nonzero if any check failed. DirectView() is the shared
// reference view the serve paths are compared against.

#include <cstdio>
#include <ctime>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "access/access_rule.h"
#include "access/rule_evaluator.h"
#include "xml/sax_parser.h"
#include "xml/serializer.h"

// Set in sanitizer builds, whose runtime owns operator new and the
// address-space layout: tests that count allocations or bound memory
// report those gates skipped there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CSXA_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define CSXA_SANITIZED 1
#endif
#endif

namespace csxa::testing {

struct TestCase {
  const char* name;
  std::function<void()> fn;
};

inline std::vector<TestCase>& Registry() {
  static std::vector<TestCase> tests;
  return tests;
}

inline int failures = 0;
inline const char* current_test = "";

struct Registrar {
  Registrar(const char* name, std::function<void()> fn) {
    Registry().push_back({name, std::move(fn)});
  }
};

template <typename T>
std::string Repr(const T& v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

/// CPU seconds this thread has run: unlike wall time, it does not count
/// the time the test was descheduled (the scaling gates time with it).
inline double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e9;
}

inline void Fail(const char* file, int line, const std::string& msg) {
  ++failures;
  std::fprintf(stderr, "  FAIL %s:%d [%s] %s\n", file, line, current_test,
               msg.c_str());
}

}  // namespace csxa::testing

#define TEST(name)                                                       \
  static void test_##name();                                             \
  static ::csxa::testing::Registrar registrar_##name(#name, test_##name); \
  static void test_##name()

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) ::csxa::testing::Fail(__FILE__, __LINE__, #cond);    \
  } while (0)

#define CHECK_EQ(a, b)                                                     \
  do {                                                                     \
    auto va_ = (a);                                                        \
    auto vb_ = (b);                                                        \
    if (!(va_ == vb_)) {                                                   \
      ::csxa::testing::Fail(__FILE__, __LINE__,                            \
                            std::string(#a " == " #b "\n    lhs: ") +      \
                                ::csxa::testing::Repr(va_) +               \
                                "\n    rhs: " + ::csxa::testing::Repr(vb_)); \
    }                                                                      \
  } while (0)

#define CHECK_OK(expr)                                                    \
  do {                                                                    \
    auto st_ = (expr);                                                    \
    if (!st_.ok()) {                                                      \
      ::csxa::testing::Fail(__FILE__, __LINE__,                           \
                            std::string(#expr " not OK: ") +              \
                                st_.ToString());                          \
    }                                                                     \
  } while (0)

namespace csxa::testing {

/// The reference view: `rules` evaluated over a direct SAX pass of `xml`,
/// with no encoding, store or fetch in between.
inline std::string DirectView(const std::string& xml,
                              const std::vector<access::AccessRule>& rules) {
  xml::SerializingHandler ser;
  access::RuleEvaluator eval(rules, &ser);
  CHECK_OK(xml::SaxParser::Parse(xml, &eval));
  CHECK_OK(eval.Finish());
  return ser.output();
}

}  // namespace csxa::testing

int main() {
  for (const auto& t : ::csxa::testing::Registry()) {
    ::csxa::testing::current_test = t.name;
    int before = ::csxa::testing::failures;
    t.fn();
    std::printf("[%s] %s\n",
                ::csxa::testing::failures == before ? "PASS" : "FAIL", t.name);
  }
  if (::csxa::testing::failures > 0) {
    std::printf("%d check(s) failed\n", ::csxa::testing::failures);
    return 1;
  }
  std::printf("all tests passed\n");
  return 0;
}

#endif  // CSXA_TESTS_TESTING_H_
