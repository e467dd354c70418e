// A hash map that can be looked up but not iterated.
//
// Hash-table iteration order depends on insertion history and on the
// standard library's internals, so a loop over one that feeds output
// makes the output bytes depend on them. HashIndex is std::unordered_map
// with its lookup and update members only: a range-for or a begin() walk
// over it does not compile, so no such loop can be written.
#pragma once

#include <ranges>
#include <unordered_map>

namespace croupier {

template <typename K, typename V>
class HashIndex : private std::unordered_map<K, V> {
  using Base = std::unordered_map<K, V>;

 public:
  using Base::at;
  using Base::contains;
  using Base::end;
  using Base::find;

  using Base::emplace;
  using Base::erase;
  using Base::try_emplace;
  using Base::operator[];

  using Base::clear;
  using Base::empty;
  using Base::reserve;
  using Base::size;
};

static_assert(!std::ranges::range<HashIndex<int, int>>);

}  // namespace croupier
