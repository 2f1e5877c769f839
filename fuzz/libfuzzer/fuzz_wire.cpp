// libFuzzer harness for the wire front end.
#include "driver.hpp"

PERFKNOW_DEFINE_FUZZER(perfknow::fuzz::Frontend::kWire)
