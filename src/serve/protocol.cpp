#include "serve/protocol.hpp"

namespace nsdc::serve {

void write_request_header(net::WireWriter& w, const RequestHeader& h) {
  w.u8(static_cast<std::uint8_t>(h.type));
  w.u32(h.request_id);
  w.f64(h.deadline_s);
}

RequestHeader read_request_header(net::WireReader& r) {
  RequestHeader h;
  h.type = static_cast<ReqType>(r.u8());
  h.request_id = r.u32();
  h.deadline_s = r.f64();
  return h;
}

namespace {

net::WireWriter begin(ReqType type, std::uint32_t id, double deadline_s = 0.0) {
  net::WireWriter w;
  write_request_header(w, {type, id, deadline_s});
  return w;
}

}  // namespace

std::string make_ping(std::uint32_t id) {
  return begin(ReqType::kPing, id).take();
}

std::string make_arrival(std::uint32_t id, std::string_view net_name,
                         double deadline_s) {
  net::WireWriter w = begin(ReqType::kArrival, id, deadline_s);
  w.str(net_name);
  return w.take();
}

std::string make_critical(std::uint32_t id) {
  return begin(ReqType::kCritical, id).take();
}

std::string make_ssta_moments(std::uint32_t id, std::string_view net_name,
                              double deadline_s) {
  net::WireWriter w = begin(ReqType::kSstaMoments, id, deadline_s);
  w.str(net_name);
  return w.take();
}

std::string make_lint(std::uint32_t id, double deadline_s) {
  return begin(ReqType::kLint, id, deadline_s).take();
}

std::string make_netmc(std::uint32_t id, std::uint32_t samples,
                       std::uint64_t seed, double deadline_s) {
  net::WireWriter w = begin(ReqType::kNetMc, id, deadline_s);
  w.u32(samples);
  w.u64(seed);
  return w.take();
}

std::string make_session_open(std::uint32_t id) {
  return begin(ReqType::kSessionOpen, id).take();
}

std::string make_session_close(std::uint32_t id, std::uint32_t session) {
  net::WireWriter w = begin(ReqType::kSessionClose, id);
  w.u32(session);
  return w.take();
}

std::string make_session_query(std::uint32_t id, std::uint32_t session,
                               std::string_view net_name) {
  net::WireWriter w = begin(ReqType::kSessionQuery, id);
  w.u32(session);
  w.str(net_name);
  return w.take();
}

std::string make_shutdown(std::uint32_t id) {
  return begin(ReqType::kShutdown, id).take();
}

SessionEditRequest::SessionEditRequest(std::uint32_t id, std::uint32_t session,
                                       double deadline_s)
    : w_(begin(ReqType::kSessionEdit, id, deadline_s)) {
  w_.u32(session);
  count_pos_ = w_.size();
  w_.u32(0);  // edit count, patched by take()
}

SessionEditRequest& SessionEditRequest::set_cell_type(
    std::uint32_t cell, std::string_view type_name) {
  w_.u8(static_cast<std::uint8_t>(EditOp::kSetCellType));
  w_.u32(cell);
  w_.str(type_name);
  ++count_;
  return *this;
}

SessionEditRequest& SessionEditRequest::rewire_fanin(std::uint32_t cell,
                                                     std::uint32_t pin,
                                                     std::uint32_t new_net) {
  w_.u8(static_cast<std::uint8_t>(EditOp::kRewireFanin));
  w_.u32(cell);
  w_.u32(pin);
  w_.u32(new_net);
  ++count_;
  return *this;
}

std::string SessionEditRequest::take() {
  w_.patch_u32(count_pos_, count_);
  return w_.take();
}

ResponseHead read_response_head(net::WireReader& r) {
  ResponseHead head;
  head.status = static_cast<Status>(r.u8());
  head.request_id = r.u32();
  if (r.ok() && head.status != Status::kOk) head.error = r.str();
  return head;
}

}  // namespace nsdc::serve
