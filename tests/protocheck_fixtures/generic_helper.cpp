// A generic phase helper builds the bus for the message type it is called
// with. Each call binds the helper's bus to that message: the call's sends
// are checked against it, then the helper steps and reads the inbox.
namespace reconfnet::fx {

struct PingMsg {
  int value = 0;
};

template <typename Msg, typename Sends>
void run_phase(const Sends& sends) {
  sim::Bus<Msg> bus(&meter);
  sends(bus);
  bus.step();
  for (const auto& envelope : bus.inbox(2)) consume(envelope);
}

void run() {
  run_phase<PingMsg>([&](auto& link) {
    link.send(1, 2, PingMsg{1}, kPingBits);
  });
  run_phase<PingMsg>([&](auto& link) {
    link.send(1, 2, PingMsg{2}, kPingBits + 1);  // line 23: RNP306
  });
  run_phase<GhostMsg>([&](auto& link) {  // line 25: RNP301
    link.send(1, 2, GhostMsg{}, kPingBits);
  });
}

}  // namespace reconfnet::fx
