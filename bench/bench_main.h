// The one entry point of every bench binary: `main` hands its body to
// run_main, which returns the body's exit status, or prints one
// "error: ..." line and returns 1 when the body throws (a bad
// KCORE_* setting, an unwritable results file), instead of letting the
// exception reach std::terminate and abort.
#pragma once

#include <exception>
#include <iostream>

namespace kcore::bench {

template <typename Body>
int run_main(const Body& body) {
  try {
    return body();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace kcore::bench
