#include "registers/registry.h"

#include "common/check.h"
#include "registers/abd.h"
#include "registers/fast_swmr.h"
#include "registers/maxmin.h"

namespace fastreg {
namespace {

using maker = std::unique_ptr<automaton> (*)(const system_config& cfg,
                                             std::uint32_t index,
                                             object_id obj);

/// One construction of the paper: its round counts, the predicate that
/// says where it is fast, and the automata it is built from.
struct protocol_row {
  const char* name;
  bool multi_writer;
  int read_rounds;
  int write_rounds;
  bool (*feasible)(const system_config& cfg);
  maker writer;
  maker reader;
  maker server;
};

/// Maker for the automata constructed from (cfg, index, args...): every
/// reader and server.
template <class T, auto... Args>
std::unique_ptr<automaton> indexed(const system_config& cfg,
                                   std::uint32_t index, object_id) {
  return std::make_unique<T>(cfg, index, Args...);
}

/// Maker for a single writer constructed from cfg alone (writer 0; the
/// abd_writer of the single-writer rows stamps wid 0).
template <class T>
std::unique_ptr<automaton> sole(const system_config& cfg, std::uint32_t,
                                object_id) {
  return std::make_unique<T>(cfg);
}

/// fast_swmr's writer; signed, it binds the object id into every value.
template <bool Signed>
std::unique_ptr<automaton> swmr_writer(const system_config& cfg,
                                       std::uint32_t, object_id obj) {
  return std::make_unique<fast_swmr_writer>(cfg, Signed, obj);
}

/// The multi-writer rows' writer, one per writer, each stamping wid
/// index + 1 (wid 0 means "no writer" in a defaulted wts_t). With Query it
/// runs mwmr's query round first; without, it is the strawmen's one round.
template <bool Query>
std::unique_ptr<automaton> multi_writer(const system_config& cfg,
                                        std::uint32_t index, object_id) {
  return std::make_unique<abd_writer>(
      cfg, index, static_cast<std::int32_t>(index) + 1, Query);
}

bool majority(const system_config& cfg) {
  return majority_feasible(cfg.S(), cfg.t());
}

constexpr protocol_row k_protocols[] = {
    // Figure 2: the fast SWMR register, crash model.
    {"fast_swmr", false, 1, 1,
     [](const system_config& cfg) {
       return fast_swmr_feasible(cfg.S(), cfg.t(), cfg.R());
     },
     swmr_writer<false>, indexed<fast_swmr_reader, false>,
     indexed<fast_swmr_server, false>},
    // Figure 5: the same automata over signed timestamps, arbitrary
    // failures (Section 6.1).
    {"fast_bft", false, 1, 1,
     [](const system_config& cfg) {
       return fast_bft_feasible(cfg.S(), cfg.t(), cfg.b(), cfg.R());
     },
     swmr_writer<true>, indexed<fast_swmr_reader, true>,
     indexed<fast_swmr_server, true>},
    // Attiya, Bar-Noy and Dolev: two-round reads, the baseline.
    {"abd", false, 2, 1, majority, sole<abd_writer>, indexed<abd_reader>,
     indexed<quorum_server>},
    // Section 1's relay read. Client-visible round-trips: the reader sends
    // once and waits; the hidden server-to-server round makes the true
    // cost 3 one-way delays, which benches report separately.
    {"maxmin", false, 1, 1, majority, sole<abd_writer>,
     indexed<abd_reader, read_rule::min>, indexed<maxmin_server>},
    // Section 8: a fast regular (not atomic) register, any R.
    {"regular", false, 1, 1,
     [](const system_config& cfg) {
       return fast_regular_feasible(cfg.S(), cfg.t());
     },
     sole<abd_writer>, indexed<abd_reader, read_rule::max>,
     indexed<quorum_server>},
    // Section 1: fast and atomic with a single reader.
    {"single_reader", false, 1, 1,
     [](const system_config& cfg) {
       return cfg.R() == 1 && fast_single_reader_feasible(cfg.S(), cfg.t());
     },
     sole<abd_writer>, indexed<abd_reader, read_rule::monotone_max>,
     indexed<quorum_server>},
    // Section 7's two-round MWMR baseline.
    {"mwmr", true, 2, 2, majority, multi_writer<true>, indexed<abd_reader>,
     indexed<quorum_server>},
    // Strawman "fast" MWMR candidate for the Proposition 11 construction:
    // one-round writes from local counters with writer-id tiebreak, and
    // readers that return the quorum maximum in one round. It claims
    // feasibility whenever a majority is correct; it is wait-free and fast
    // -- and not atomic, as the adversary shows.
    {"naive_fast_mwmr", true, 1, 1, majority, multi_writer<false>,
     indexed<abd_reader, read_rule::max>, indexed<quorum_server>},
    // The same strawman on last-write-wins servers. It passes property P1
    // on the sequential endpoint runs, so the Proposition 11 construction
    // has to find the flip point i1 and derive the P2 violation from the
    // two extended runs run'/run'' -- the full argument of Section 7.
    {"naive_fast_mwmr_lww", true, 1, 1, majority, multi_writer<false>,
     indexed<abd_reader, read_rule::max>, indexed<quorum_server, true>},
};

/// Every row through one implementation.
class table_protocol final : public protocol {
 public:
  explicit table_protocol(const protocol_row& row) : row_(row) {}

  [[nodiscard]] std::string name() const override { return row_.name; }
  [[nodiscard]] bool feasible(const system_config& cfg) const override {
    return row_.feasible(cfg);
  }
  [[nodiscard]] bool multi_writer() const override {
    return row_.multi_writer;
  }
  [[nodiscard]] int read_rounds() const override { return row_.read_rounds; }
  [[nodiscard]] int write_rounds() const override {
    return row_.write_rounds;
  }

  [[nodiscard]] std::unique_ptr<automaton> make_writer(
      const system_config& cfg, std::uint32_t index,
      object_id obj = k_default_object) const override {
    FASTREG_EXPECTS(row_.multi_writer || index == 0);  // single writer
    return row_.writer(cfg, index, obj);
  }
  [[nodiscard]] std::unique_ptr<automaton> make_reader(
      const system_config& cfg, std::uint32_t index,
      object_id obj = k_default_object) const override {
    return row_.reader(cfg, index, obj);
  }
  [[nodiscard]] std::unique_ptr<automaton> make_server(
      const system_config& cfg, std::uint32_t index,
      object_id obj = k_default_object) const override {
    return row_.server(cfg, index, obj);
  }

 private:
  const protocol_row& row_;
};

}  // namespace

std::unique_ptr<protocol> make_protocol(const std::string& name) {
  for (const auto& row : k_protocols) {
    if (name == row.name) return std::make_unique<table_protocol>(row);
  }
  return nullptr;
}

std::vector<std::string> protocol_names() {
  std::vector<std::string> names;
  for (const auto& row : k_protocols) names.emplace_back(row.name);
  return names;
}

}  // namespace fastreg
