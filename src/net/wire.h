#ifndef LBTRUST_NET_WIRE_H_
#define LBTRUST_NET_WIRE_H_

#include <string>
#include <string_view>

#include "datalog/value.h"
#include "util/status.h"

namespace lbtrust::net {

/// Dictionary-framed multi-tuple block, the payload of a data frame.
/// Every distinct value in the batch is serialized exactly once into a
/// per-message dictionary; rows are lists of dictionary indices, so
/// repeated principals/predicates/payloads ship once per message no
/// matter how many tuples mention them. Values are length-prefixed and
/// kind-tagged; quoted code travels as its canonical text and is re-parsed
/// on arrival (§3.5).
///
///   block := 'B' ':' <dict-count> ':' value*
///                    <row-count> ':' row*
///   row   := <arity> ':' (<dict-index> ':')*
///   value := <kind-char> ':' <payload-length> ':' <payload>
std::string SerializeTupleBlock(const std::vector<datalog::Tuple>& tuples);

util::Result<std::vector<datalog::Tuple>> DeserializeTupleBlock(
    std::string_view text);

}  // namespace lbtrust::net

#endif  // LBTRUST_NET_WIRE_H_
