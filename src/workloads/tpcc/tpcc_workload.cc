#include "workloads/tpcc/tpcc_workload.hh"

#include <array>
#include <vector>

namespace atomsim
{

using namespace tpcc;

TpccWorkload::TpccWorkload(const ScaleParams &scale) : _scale(scale) {}

void
TpccWorkload::init(DirectAccessor &mem, PersistentHeap &heap,
                   std::uint32_t num_cores)
{
    _heap = &heap;
    _db = std::make_unique<Database>(_scale, heap);
    _db->populate(mem, num_cores);
}

void
TpccWorkload::runTransaction(CoreId core, Accessor &mem, Random &rng)
{
    Database &db = *_db;
    const std::uint32_t w =
        1 + std::uint32_t(rng.below(_scale.warehouses));
    const std::uint32_t d =
        1 + std::uint32_t(rng.below(_scale.districtsPerWh));
    const std::uint32_t c =
        1 + std::uint32_t(rng.below(_scale.customersPerDistrict));
    constexpr std::uint32_t kMaxItems = 15;  // 5..15 order lines
    const std::uint32_t n_items = 5 + std::uint32_t(rng.below(11));

    // --- Reads outside the durable region -----------------------------
    const Addr wrow = *db.warehouse().search(mem, w);
    mem.load64(wrow + kWTaxOff);

    const Addr drow = *db.district().search(mem, districtKey(w, d));
    mem.load64(drow + kDTaxOff);

    const Addr crow = *db.customer().search(mem, customerKey(w, d, c));
    mem.load64(crow + kCDiscountOff);

    struct PickedItem
    {
        std::uint32_t id;
        std::uint32_t qty;
        Addr irow;
        Addr srow;
    };
    std::array<PickedItem, kMaxItems> picked;
    for (std::uint32_t l = 0; l < n_items; ++l) {
        const std::uint32_t item =
            1 + std::uint32_t(rng.below(_scale.items));
        const Addr irow = *db.item().search(mem, item);
        mem.load64(irow + kIPriceOff);
        const Addr srow = *db.stock().search(mem, stockKey(w, item));
        picked[l] = PickedItem{item, 1 + std::uint32_t(rng.below(10)),
                               irow, srow};
    }

    // --- The atomic new-order mutation --------------------------------
    mem.atomicBegin();

    const std::uint64_t o_id = mem.load64(drow + kDNextOidOff);
    mem.store64(drow + kDNextOidOff, o_id + 1);

    const Addr orow = _heap->alloc(core, kOrderRow, kLineBytes);
    mem.store64(orow + 0, customerKey(w, d, c));
    mem.store64(orow + 8, n_items);
    mem.store64(orow + 16, 0);  // o_carrier_id (null)
    db.orders().insert(mem, orderKey(w, d, std::uint32_t(o_id)), orow);

    const Addr norow = _heap->alloc(core, kNewOrderRow, kLineBytes);
    mem.store64(norow + 0, o_id);
    db.newOrders().insert(mem, orderKey(w, d, std::uint32_t(o_id)),
                          norow);

    for (std::uint32_t l = 0; l < n_items; ++l) {
        const PickedItem &pi = picked[l];

        // Stock update.
        const std::uint64_t qty = mem.load64(pi.srow + kSQuantityOff);
        const std::uint64_t new_qty =
            (qty >= pi.qty + 10) ? qty - pi.qty : qty + 91 - pi.qty;
        mem.store64(pi.srow + kSQuantityOff, new_qty);
        mem.store64(pi.srow + kSYtdOff,
                    mem.load64(pi.srow + kSYtdOff) + pi.qty);
        mem.store64(pi.srow + kSOrderCntOff,
                    mem.load64(pi.srow + kSOrderCntOff) + 1);

        // Order line insert.
        const Addr olrow = _heap->alloc(core, kOrderLineRow,
                                        kLineBytes);
        const std::uint64_t price = mem.load64(pi.irow + kIPriceOff);
        mem.store64(olrow + 0, pi.id);
        mem.store64(olrow + 8, pi.qty);
        mem.store64(olrow + 16, price * pi.qty);
        mem.store64(olrow + 24, w);
        db.orderLines().insert(
            mem,
            orderLineKey(w, d, std::uint32_t(o_id), l), olrow);
        ++_orderLinesPlaced;
    }

    mem.atomicEnd();
    ++_ordersPlaced;
}

std::string
TpccWorkload::checkConsistency(DirectAccessor &mem, std::uint32_t)
{
    if (!_db)
        return "";
    const std::string err = _db->checkStructure(mem);
    if (!err.empty())
        return err;

    // Order-count invariant: every district's d_next_o_id - 1 orders
    // must exist in the orders table.
    std::uint64_t orders_expected = 0;
    for (std::uint32_t w = 1; w <= _scale.warehouses; ++w) {
        for (std::uint32_t d = 1; d <= _scale.districtsPerWh; ++d) {
            const auto drow = _db->district().search(
                mem, districtKey(w, d));
            if (!drow)
                return faultf("district row missing: warehouse=%u "
                              "district=%u", w, d);
            orders_expected += mem.load64(*drow + kDNextOidOff) - 1;
        }
    }
    if (_db->orders().count(mem) != orders_expected) {
        return faultf(
            "orders table disagrees with district sequence counters: "
            "orders=%llu expected=%llu",
            (unsigned long long)_db->orders().count(mem),
            (unsigned long long)orders_expected);
    }
    if (_db->newOrders().count(mem) != orders_expected) {
        return faultf(
            "new_order table disagrees with district counters: "
            "new_orders=%llu expected=%llu",
            (unsigned long long)_db->newOrders().count(mem),
            (unsigned long long)orders_expected);
    }
    return "";
}

} // namespace atomsim
