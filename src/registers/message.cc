#include "registers/message.h"

#include "obs/recorder.h"
#include "registers/config.h"

namespace fastreg {

std::string system_config::describe() const {
  std::string out = "S=" + std::to_string(servers) +
                    " t=" + std::to_string(t_failures);
  if (b_malicious != 0) out += " b=" + std::to_string(b_malicious);
  out += " R=" + std::to_string(readers);
  if (writers != 1) out += " W=" + std::to_string(writers);
  return out;
}

std::vector<std::uint8_t> signed_payload(object_id obj, ts_t ts,
                                         std::int32_t wid, const value_t& val,
                                         const value_t& prev) {
  byte_writer w;
  w.put_u64(obj);
  w.put_i64(ts);
  w.put_i32(wid);
  w.put_string(val);
  w.put_string(prev);
  return w.take();
}

namespace {

void record_one(obs::recorder& rec, obs::rec_event ev, const process_id& peer,
                const message& m) {
  rec.record(ev, m.trace, m.span, static_cast<std::uint8_t>(m.type), peer,
             m.obj, m.epoch, m.ts);
}

}  // namespace

void record_batch(obs::recorder& rec, obs::rec_event ev,
                  const process_id& peer, std::span<const message> msgs) {
  for (const auto& m : msgs) record_one(rec, ev, peer, m);
}

void record_batch(obs::recorder& rec, obs::rec_event ev,
                  const process_id& peer, message_refs msgs) {
  for (const message* m : msgs) record_one(rec, ev, peer, *m);
}

std::vector<std::uint8_t> signed_payload(const message& m) {
  return signed_payload(m.obj, m.ts, m.wid, m.val, m.prev);
}

void encode_process_id(byte_writer& w, const process_id& p) {
  w.put_u8(static_cast<std::uint8_t>(p.r));
  w.put_u32(p.index);
}

std::optional<process_id> decode_process_id(byte_reader& r) {
  const auto role_byte = r.get_u8();
  const auto index = r.get_u32();
  if (!role_byte || !index) return std::nullopt;
  if (*role_byte > static_cast<std::uint8_t>(role::server)) return std::nullopt;
  return process_id{static_cast<role>(*role_byte), *index};
}

void encode_message(byte_writer& w, const message& m) {
  w.put_u8(static_cast<std::uint8_t>(m.type));
  w.put_u64(m.obj);
  w.put_u64(m.epoch);
  w.put_u32(m.attempt);
  w.put_u8(m.mig ? 1 : 0);
  w.put_u64(m.trace);
  w.put_u32(m.span);
  w.put_i64(m.ts);
  w.put_i32(m.wid);
  w.put_string(m.val);
  w.put_string(m.prev);
  w.put_u64(m.seen.bits());
  w.put_u64(m.rcounter);
  w.put_bytes(std::span<const std::uint8_t>(m.sig.data(), m.sig.size()));
  encode_process_id(w, m.origin);
}

bool decode_message(byte_reader& r, message& m) {
  const auto type = r.get_u8();
  if (!type || *type < 1 || *type > k_max_msg_type) return false;
  const auto obj = r.get_u64();
  const auto epoch = r.get_u64();
  const auto attempt = r.get_u32();
  const auto mig = r.get_u8();
  const auto trace = r.get_u64();
  const auto span = r.get_u32();
  const auto ts = r.get_i64();
  const auto wid = r.get_i32();
  if (!obj || !epoch || !attempt || !mig || !trace || !span || !ts || !wid) {
    return false;
  }
  // The span travels as a u32 but is a u16 in memory: a wider value is
  // malformed, not something to truncate.
  if (*span > 0xFFFFu) return false;
  if (!r.get_string(m.val) || !r.get_string(m.prev)) return false;
  const auto seen_bits = r.get_u64();
  const auto rcounter = r.get_u64();
  if (!seen_bits || !rcounter || !r.get_bytes(m.sig)) return false;
  const auto origin = decode_process_id(r);
  if (!origin) return false;
  m.type = static_cast<msg_type>(*type);
  m.obj = *obj;
  m.epoch = *epoch;
  m.attempt = *attempt;
  m.mig = *mig != 0;
  m.trace = *trace;
  m.span = static_cast<std::uint16_t>(*span);
  m.ts = *ts;
  m.wid = *wid;
  m.seen = seen_set{*seen_bits};
  m.rcounter = *rcounter;
  m.origin = *origin;
  return true;
}

}  // namespace fastreg
