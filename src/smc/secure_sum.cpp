#include "smc/secure_sum.hpp"

#include <algorithm>

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

namespace {

std::span<std::uint8_t> undrawn(Vec& v, std::size_t drawn) {
  return std::span<std::uint8_t>(reinterpret_cast<std::uint8_t*>(v.data()),
                                 v.size() * sizeof(Element))
      .subspan(drawn);
}

}  // namespace

bool MaskAhead::draw_some() {
  std::span<std::uint8_t> rest = undrawn(next_, drawn_);
  if (rest.empty()) return false;
  rest = rest.first(std::min(rest.size(), kChunkBytes));
  sgxsim::trusted_read_rand(rest);
  drawn_ += rest.size();
  return true;
}

const Vec& MaskAhead::take() {
  std::span<std::uint8_t> rest = undrawn(next_, drawn_);
  if (!rest.empty()) sgxsim::trusted_read_rand(rest);
  drawn_ = 0;
  current_.swap(next_);
  return current_;
}

}  // namespace ea::smc
