#include "smc/secure_sum.hpp"

#include "sgxsim/trusted_rng.hpp"

namespace ea::smc {

Vec initial_secret(int index, std::size_t dim) {
  Vec v(dim);
  std::uint64_t x = 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(index + 1);
  for (std::size_t i = 0; i < dim; ++i) {
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    v[i] = static_cast<Element>(z ^ (z >> 31));
  }
  return v;
}

void refill_random_trusted(Vec& v) {
  sgxsim::trusted_read_rand(std::span<std::uint8_t>(
      reinterpret_cast<std::uint8_t*>(v.data()), v.size() * sizeof(Element)));
}

}  // namespace ea::smc
