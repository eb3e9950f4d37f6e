// Append-only column of plain records, the storage of the obs recorders.
//
// Records live in fixed-size blocks, so an append never moves what is
// already recorded.  A std::vector that doubles would copy every record
// about once more and briefly hold both buffers.  Indexing is a shift and
// a mask.
#pragma once

#include <cstddef>
#include <iterator>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace iop::obs {

template <class T>
class Column {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "columns hold plain records");

 public:
  static constexpr std::size_t kBlockBits = 14;  ///< 16384 records a block
  static constexpr std::size_t kBlock = std::size_t{1} << kBlockBits;

  Column() = default;
  // next_ points into blocks_, so a move must leave the source empty.
  Column(Column&& other) noexcept
      : blocks_(std::exchange(other.blocks_, {})),
        next_(std::exchange(other.next_, nullptr)),
        blockEnd_(std::exchange(other.blockEnd_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  Column& operator=(Column&&) = delete;
  ~Column() {
    for (T* block : blocks_) ::operator delete(block);
  }

  /// Append a value-initialized record and return it.  The reference
  /// stays valid for the column's lifetime.
  T& emplace_back() {
    if (next_ == blockEnd_) [[unlikely]] {
      blocks_.push_back(static_cast<T*>(::operator new(sizeof(T) * kBlock)));
      next_ = blocks_.back();
      blockEnd_ = next_ + kBlock;
    }
    ++size_;
    return *::new (next_++) T{};
  }
  void push_back(const T& value) { emplace_back() = value; }

  T& operator[](std::size_t i) noexcept {
    return blocks_[i >> kBlockBits][i & (kBlock - 1)];
  }
  const T& operator[](std::size_t i) const noexcept {
    return blocks_[i >> kBlockBits][i & (kBlock - 1)];
  }
  T& back() noexcept { return (*this)[size_ - 1]; }
  std::size_t size() const noexcept { return size_; }

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator() = default;
    const_iterator(const Column* column, std::size_t index)
        : column_(column), index_(index) {}
    reference operator*() const { return (*column_)[index_]; }
    pointer operator->() const { return &(*column_)[index_]; }
    const_iterator& operator++() {
      ++index_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++index_;
      return old;
    }
    bool operator==(const const_iterator& other) const {
      return index_ == other.index_;
    }

   private:
    const Column* column_ = nullptr;
    std::size_t index_ = 0;
  };
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size_}; }

 private:
  std::vector<T*> blocks_;
  T* next_ = nullptr;  ///< next free slot of the last block
  T* blockEnd_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace iop::obs
