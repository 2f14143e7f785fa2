type rate = float

let mbps r = r *. 1e6
let gbps r = r *. 1e9
let rate_to_mbps r = r /. 1e6

let tx_time rate ~bytes =
  assert (rate > 0.);
  Time.of_sec (float_of_int (8 * bytes) /. rate)

let bytes_in rate t = rate *. Time.to_sec t /. 8.

let bdp_packets rate ~rtt ~packet_bytes =
  bytes_in rate rtt /. float_of_int packet_bytes
