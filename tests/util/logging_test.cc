/**
 * @file
 * The warn() line format: a bare "warn: " prefix and one line per
 * message.
 */

#include <gtest/gtest.h>

#include <string>

#include "util/logging.hh"

namespace rest
{

namespace
{

/** Capture what one rest_warn emits on stderr. */
std::string
warnOutput(const std::string &msg)
{
    ::testing::internal::CaptureStderr();
    rest_warn(msg);
    return ::testing::internal::GetCapturedStderr();
}

} // namespace

TEST(Logging, DefaultWarnLineIsBarePrefix)
{
    EXPECT_EQ(warnOutput("plain message"), "warn: plain message\n");
}

} // namespace rest
