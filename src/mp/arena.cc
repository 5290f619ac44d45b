#include "mp/arena.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace dsmem::mp {

Arena::Arena(size_t max_slots) : max_slots_(max_slots)
{
    if (max_slots == 0)
        throw std::invalid_argument("Arena needs at least one slot");
}

void
Arena::growTo(size_t end)
{
    // Double the reservation (clamped to the cap) rather than let
    // resize() pick: its growth is relative to size() and could
    // reserve up to twice the cap.
    if (end > slots_.capacity())
        slots_.reserve(
            std::min(max_slots_, std::max(end, 2 * slots_.capacity())));
    slots_.resize(end);
}

Addr
Arena::alloc(size_t slots, Addr align_bytes)
{
    if (align_bytes < kSlotBytes || !std::has_single_bit(align_bytes))
        throw std::invalid_argument("Arena alignment must be a power of "
                                    "two >= 8");
    size_t align_slots = align_bytes / kSlotBytes;
    size_t start = (slots_.size() + align_slots - 1) & ~(align_slots - 1);
    if (start + slots > max_slots_)
        throw std::length_error("Arena exhausted");
    growTo(start + slots);
    return kBaseAddr + static_cast<Addr>(start) * kSlotBytes;
}

Addr
Arena::allocPadded(size_t slots, Addr line_bytes)
{
    Addr base = alloc(slots, line_bytes);
    // Round the bump pointer up so the next allocation cannot share
    // this allocation's final line.
    size_t line_slots = line_bytes / kSlotBytes;
    growTo(std::min(max_slots_,
                    (slots_.size() + line_slots - 1) & ~(line_slots - 1)));
    return base;
}

} // namespace dsmem::mp
