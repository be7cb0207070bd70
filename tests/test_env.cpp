#include "util/env.h"

#include <gtest/gtest.h>

#include <cstdlib>

#include "util/check.h"

namespace kcore::util {
namespace {

class EnvTest : public ::testing::Test {
 protected:
  void set(const char* name, const char* value) {
    ::setenv(name, value, 1);
    names_.push_back(name);
  }
  void TearDown() override {
    for (const auto& n : names_) ::unsetenv(n.c_str());
  }
  std::vector<std::string> names_;
};

TEST_F(EnvTest, StringUnsetIsNullopt) {
  EXPECT_FALSE(env_string("KCORE_TEST_UNSET_XYZ").has_value());
}

TEST_F(EnvTest, StringEmptyIsNullopt) {
  set("KCORE_TEST_EMPTY", "");
  EXPECT_FALSE(env_string("KCORE_TEST_EMPTY").has_value());
}

TEST_F(EnvTest, StringRoundtrip) {
  set("KCORE_TEST_STR", "hello");
  EXPECT_EQ(env_string("KCORE_TEST_STR").value(), "hello");
}

TEST_F(EnvTest, IntFallbackAndParse) {
  EXPECT_EQ(env_int("KCORE_TEST_UNSET_XYZ", 7), 7);
  set("KCORE_TEST_INT", "-42");
  EXPECT_EQ(env_int("KCORE_TEST_INT", 0), -42);
}

TEST_F(EnvTest, IntRejectsGarbage) {
  set("KCORE_TEST_BADINT", "12abc");
  EXPECT_THROW((void)env_int("KCORE_TEST_BADINT", 0), CheckError);
  set("KCORE_TEST_BADINT2", "abc");
  EXPECT_THROW((void)env_int("KCORE_TEST_BADINT2", 0), CheckError);
}

TEST_F(EnvTest, DoubleFallbackAndParse) {
  EXPECT_EQ(env_double("KCORE_TEST_UNSET_XYZ", 1.5), 1.5);
  set("KCORE_TEST_DBL", "0.25");
  EXPECT_EQ(env_double("KCORE_TEST_DBL", 0.0), 0.25);
}

TEST_F(EnvTest, DoubleRejectsGarbage) {
  set("KCORE_TEST_BADDBL", "1.5x");
  EXPECT_THROW((void)env_double("KCORE_TEST_BADDBL", 0.0), CheckError);
}

TEST_F(EnvTest, BoolVariants) {
  EXPECT_TRUE(env_bool("KCORE_TEST_UNSET_XYZ", true));
  EXPECT_FALSE(env_bool("KCORE_TEST_UNSET_XYZ", false));
  for (const char* truthy : {"1", "true", "TRUE", "Yes", "on"}) {
    set("KCORE_TEST_BOOL", truthy);
    EXPECT_TRUE(env_bool("KCORE_TEST_BOOL", false)) << truthy;
  }
  for (const char* falsy : {"0", "false", "No", "OFF"}) {
    set("KCORE_TEST_BOOL", falsy);
    EXPECT_FALSE(env_bool("KCORE_TEST_BOOL", true)) << falsy;
  }
}

TEST_F(EnvTest, BoolRejectsGarbage) {
  set("KCORE_TEST_BADBOOL", "maybe");
  EXPECT_THROW((void)env_bool("KCORE_TEST_BADBOOL", false), CheckError);
}

}  // namespace
}  // namespace kcore::util
