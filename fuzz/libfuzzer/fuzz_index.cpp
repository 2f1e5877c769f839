// libFuzzer harness for the index front end.
#include "driver.hpp"

PERFKNOW_DEFINE_FUZZER(perfknow::fuzz::Frontend::kIndex)
