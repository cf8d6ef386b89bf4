// Allocation counters for tests that pin down what a code path
// allocates. The test binary replaces every global operator new/delete
// (alloc_counter.cc) with versions that count calls, so a test reads the
// counters before and after the code under test and compares.
#pragma once

#include <cstdint>

namespace ntier::test {

// Calls to any global operator new so far, from all threads.
std::uint64_t allocations();
// Calls to any global operator delete so far, from all threads.
std::uint64_t deallocations();

}  // namespace ntier::test
