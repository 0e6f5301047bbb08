/**
 * @file
 * The captured sink stream: one element type plus the raw 32-bit lane
 * of every element the sink consumed, in consumption order.
 *
 * Every sink is scalar, so one lane is the whole element. Boxing each
 * one into an interp::Value (16 lanes plus a type, 72 bytes) cost 18x
 * the memory and most of a native run's time, so the runners, the
 * native engine and the daemon record, compare and checksum raw lanes.
 * Boxed Values exist only where a caller asks for them: operator[],
 * the read-only iterator, boxed(), and the implicit conversion to
 * std::vector<Value>.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "interp/value.h"

namespace macross::interp {

/** Raw-lane record of a sink's output stream. */
class CapturedStream {
  public:
    /** Read-only iterator that boxes on dereference. */
    class const_iterator {
      public:
        using iterator_category = std::input_iterator_tag;
        using value_type = Value;
        using difference_type = std::ptrdiff_t;
        using pointer = void;
        using reference = Value;

        const_iterator(const CapturedStream* s, std::size_t i)
            : s_(s), i_(i)
        {
        }

        Value operator*() const { return (*s_)[i_]; }
        const_iterator& operator++()
        {
            ++i_;
            return *this;
        }
        const_iterator operator+(difference_type n) const
        {
            return {s_, i_ + static_cast<std::size_t>(n)};
        }
        bool operator==(const const_iterator& o) const { return i_ == o.i_; }

      private:
        const CapturedStream* s_;
        std::size_t i_;
    };

    CapturedStream() = default;
    explicit CapturedStream(ir::Type elem) : elem_(elem) {}

    ir::Type elemType() const { return elem_; }
    void setElemType(ir::Type t) { elem_ = t; }

    /** Elements captured. O(1), allocates nothing. */
    std::size_t size() const { return lanes_.size(); }
    bool empty() const { return lanes_.empty(); }
    /** The raw lane of every element, in stream order. */
    const std::vector<std::uint32_t>& lanes() const { return lanes_; }

    void push(std::uint32_t bits) { lanes_.push_back(bits); }
    void append(const std::uint32_t* data, std::size_t n)
    {
        lanes_.insert(lanes_.end(), data, data + n);
    }
    void clear() { lanes_.clear(); }

    /** Element @p i, boxed as a scalar Value of elemType(). */
    Value operator[](std::size_t i) const
    {
        Value v = Value::zero(elem_);
        v.setRawBits(0, lanes_[i]);
        return v;
    }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, lanes_.size()}; }

    /** The whole stream, boxed. */
    std::vector<Value> boxed() const
    {
        std::vector<Value> out;
        out.reserve(size());
        for (std::size_t i = 0; i < size(); ++i)
            out.push_back((*this)[i]);
        return out;
    }
    operator std::vector<Value>() const { return boxed(); }

    /**
     * True when this stream is no longer than @p full and agrees with
     * it in element type and, from element @p from on, lane for lane.
     * Elements before @p from are taken as already verified.
     */
    bool isPrefixOf(const CapturedStream& full, std::size_t from = 0) const
    {
        if (elem_ != full.elem_ || size() > full.size())
            return false;
        for (std::size_t i = from; i < size(); ++i) {
            if (lanes_[i] != full.lanes_[i])
                return false;
        }
        return true;
    }

    /** Same element type and the same lanes. */
    bool operator==(const CapturedStream& o) const
    {
        return elem_ == o.elem_ && lanes_ == o.lanes_;
    }

  private:
    ir::Type elem_{ir::Scalar::Int32, 1};
    std::vector<std::uint32_t> lanes_;
};

} // namespace macross::interp
