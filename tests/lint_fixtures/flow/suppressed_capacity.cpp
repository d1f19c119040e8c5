// rds_analyze fixture: the allow() suppression syntax covers the flow
// rules too -- this file would trip capacity-arith without the allow()
// line.

namespace fix {

unsigned long long grow(unsigned long long capacity,
                        unsigned long long step) {
  // rds_analyze: allow(capacity-arith) -- fixture: demonstrating suppression
  return capacity + step;
}

}  // namespace fix
