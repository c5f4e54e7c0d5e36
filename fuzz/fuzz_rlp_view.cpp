// Differential harness for the zero-copy RLP path (rlp::decode_view) against
// the copying decoder (rlp::decode), and for the view-based transaction
// decoder against its copying oracle. On every input both decoders must
// agree bit for bit: same accept/reject outcome, same error string, and on
// success an identical tree — payload bytes, list shape, child counts and
// traversal order — with every view payload aliasing the input buffer.
#include <algorithm>
#include <functional>

#include "codec/rlp.hpp"
#include "harness.hpp"
#include "oracle_tx_decode.hpp"
#include "txn/transaction.hpp"

using namespace srbb;

namespace {

void check_same_tree(const rlp::Item& item, const rlp::ItemView& view,
                     BytesView wire) {
  FUZZ_ASSERT(view.valid());
  FUZZ_ASSERT(item.is_list == view.is_list());
  if (!item.is_list) {
    const BytesView payload = view.payload();
    FUZZ_ASSERT(payload.size() == item.payload.size());
    FUZZ_ASSERT(std::equal(payload.begin(), payload.end(),
                           item.payload.begin()));
    // Zero-copy: the payload must be a slice of the wire buffer itself.
    if (!payload.empty()) {
      FUZZ_ASSERT(payload.data() >= wire.data());
      FUZZ_ASSERT(payload.data() + payload.size() <=
                  wire.data() + wire.size());
    }
    return;
  }
  FUZZ_ASSERT(view.size() == item.items.size());
  rlp::ItemView child = item.items.empty() ? rlp::ItemView{} : view.child(0);
  for (std::size_t i = 0; i < item.items.size(); ++i) {
    check_same_tree(item.items[i], child, wire);
    child = child.next_sibling();
  }
}

void check_tx_differential(BytesView input) {
  const auto copying = txn::oracle::decode_copying(input);
  const auto viewing = txn::Transaction::decode(input);
  FUZZ_ASSERT(copying.is_ok() == viewing.is_ok());
  if (copying.is_ok()) {
    FUZZ_ASSERT(copying.value() == viewing.value());
  } else {
    FUZZ_ASSERT(copying.status().message() == viewing.status().message());
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const BytesView input{data, size};
  const auto copying = rlp::decode(input);
  rlp::ViewDoc doc;
  const auto viewing = rlp::decode_view(input, doc);
  FUZZ_ASSERT(copying.is_ok() == viewing.is_ok());
  if (copying.is_ok()) {
    check_same_tree(copying.value(), viewing.value(), input);
  } else {
    FUZZ_ASSERT(copying.status().message() == viewing.status().message());
  }
  // Same bytes through the transaction decoders: most inputs fail both
  // (identically), tx-corpus seeds exercise the success path.
  check_tx_differential(input);
  return 0;
}
