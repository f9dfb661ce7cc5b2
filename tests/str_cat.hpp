// String building for tests without operator+ on a temporary.
//
// "k" + std::to_string(i) calls operator+(const char*, std::string&&),
// which inserts at the front of the temporary; GCC 12 at -O3 reports a
// false -Wrestrict overlap inside that insert, and -Werror makes it fatal.
// str_cat appends every part to one string instead: integers through
// std::to_string, anything else through operator+=.
#pragma once

#include <string>
#include <type_traits>

namespace ea::test {

template <typename... Parts>
std::string str_cat(const Parts&... parts) {
  std::string out;
  auto append = [&out](const auto& part) {
    if constexpr (std::is_integral_v<std::decay_t<decltype(part)>>) {
      out += std::to_string(part);
    } else {
      out += part;
    }
  };
  (append(parts), ...);
  return out;
}

}  // namespace ea::test
