type t = {
  min_rto : Sim.Time.t;
  max_rto : Sim.Time.t;
  mutable srtt : Sim.Time.t option;
  mutable rttvar : Sim.Time.t;
  mutable min_rtt : Sim.Time.t option;
  mutable backoff_factor : int;
}

let create ?(min_rto = Sim.Time.ms 200) ?(max_rto = Sim.Time.sec 60) () =
  {
    min_rto;
    max_rto;
    srtt = None;
    rttvar = Sim.Time.zero;
    min_rtt = None;
    backoff_factor = 1;
  }

let sample t r =
  let r = Sim.Time.max r (Sim.Time.us 1) in
  (match t.min_rtt with
  | None -> t.min_rtt <- Some r
  | Some m -> if Sim.Time.(r < m) then t.min_rtt <- Some r);
  match t.srtt with
  | None ->
      (* First measurement: SRTT = R, RTTVAR = R/2 (RFC 6298 §2.2). *)
      t.srtt <- Some r;
      t.rttvar <- Sim.Time.scale r 0.5
  | Some srtt ->
      let err =
        let d = Sim.Time.sub srtt r in
        if Sim.Time.is_negative d then Sim.Time.sub r srtt else d
      in
      (* RTTVAR = 3/4 RTTVAR + 1/4 |SRTT - R|; SRTT = 7/8 SRTT + 1/8 R *)
      t.rttvar <-
        Sim.Time.add (Sim.Time.scale t.rttvar 0.75) (Sim.Time.scale err 0.25);
      t.srtt <-
        Some (Sim.Time.add (Sim.Time.scale srtt 0.875) (Sim.Time.scale r 0.125))

let srtt t = t.srtt
let rttvar t = match t.srtt with None -> None | Some _ -> Some t.rttvar
let min_rtt t = t.min_rtt

let rto t =
  let base =
    match t.srtt with
    | None -> Sim.Time.sec 1
    | Some srtt -> Sim.Time.add srtt (Sim.Time.mul_int t.rttvar 4)
  in
  let clamped = Sim.Time.max t.min_rto (Sim.Time.min base t.max_rto) in
  Sim.Time.min t.max_rto (Sim.Time.mul_int clamped t.backoff_factor)

let backoff t =
  if t.backoff_factor < 64 then t.backoff_factor <- t.backoff_factor * 2

let reset_backoff t = t.backoff_factor <- 1
let backoff_factor t = t.backoff_factor
