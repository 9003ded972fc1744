#include "common/types.h"

#include "common/seen_set.h"

namespace fastreg {

std::string to_string(const process_id& p) {
  switch (p.r) {
    case role::writer:
      return p.index == 0 ? "w" : "w" + std::to_string(p.index + 1);
    case role::reader:
      return "r" + std::to_string(p.index + 1);
    case role::server:
      return "s" + std::to_string(p.index + 1);
  }
  return "?";
}

const char* to_string(msg_type t) {
  switch (t) {
    case msg_type::write_req:
      return "WRITE";
    case msg_type::write_ack:
      return "WRITEACK";
    case msg_type::read_req:
      return "READ";
    case msg_type::read_ack:
      return "READACK";
    case msg_type::wb_req:
      return "WB";
    case msg_type::wb_ack:
      return "WBACK";
    case msg_type::query_req:
      return "QUERY";
    case msg_type::query_ack:
      return "QUERYACK";
    case msg_type::gossip:
      return "GOSSIP";
    case msg_type::epoch_nack:
      return "EPOCHNACK";
    case msg_type::state_req:
      return "STATE";
    case msg_type::state_ack:
      return "STATEACK";
    case msg_type::seed_req:
      return "SEED";
    case msg_type::seed_ack:
      return "SEEDACK";
    case msg_type::fetch_req:
      return "FETCH";
    case msg_type::fetch_ack:
      return "FETCHACK";
  }
  return "?";
}

}  // namespace fastreg
