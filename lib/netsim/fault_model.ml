(* Composable link-fault injection.

   Everything here is a pure function of (profile, rng seed, packet
   arrival order): the model consults its own derived RNG stream and
   the simulated clock, never wall time, so a fault schedule replayed
   with the same seed reproduces every drop, jitter and duplicate
   byte-identically. *)

type ge = {
  p_gb : float;
  p_bg : float;
  loss_good : float;
  loss_bad : float;
}

type jitter = { prob : float; max_extra : Sim.Time.t }

type event =
  | Outage of { start : Sim.Time.t; stop : Sim.Time.t }
  | Delay_step of { at : Sim.Time.t; extra : Sim.Time.t }

type profile = {
  ge : ge option;
  reorder : jitter option;
  duplicate : jitter option;
  schedule : event list;
}

let passthrough = { ge = None; reorder = None; duplicate = None; schedule = [] }

let validate_prob name p =
  if not (p >= 0. && p <= 1.) then
    invalid_arg
      (Printf.sprintf "Fault_model: %s probability %g outside [0, 1]" name p)

let validate profile =
  (match profile.ge with
  | None -> ()
  | Some g ->
      validate_prob "ge.p_gb" g.p_gb;
      validate_prob "ge.p_bg" g.p_bg;
      validate_prob "ge.loss_good" g.loss_good;
      validate_prob "ge.loss_bad" g.loss_bad);
  (match profile.reorder with
  | None -> ()
  | Some j -> validate_prob "reorder" j.prob);
  (match profile.duplicate with
  | None -> ()
  | Some j -> validate_prob "duplicate" j.prob);
  List.iter
    (function
      | Outage { start; stop } ->
          if Sim.Time.(stop < start) then
            invalid_arg "Fault_model: outage stops before it starts"
      | Delay_step { extra; _ } ->
          if Sim.Time.is_negative extra then
            invalid_arg "Fault_model: negative delay step")
    profile.schedule

type t = {
  rng : Sim.Rng.t;
  profile : profile;
  outages : (Sim.Time.t * Sim.Time.t) array; (* sorted by start *)
  steps : (Sim.Time.t * Sim.Time.t) array; (* (at, extra), sorted by at *)
  mutable ge_bad : bool;
  mutable step_cursor : int;
  mutable cur_extra : Sim.Time.t;
  mutable random_drops : int;
  mutable outage_drops : int;
  mutable duplicates : int;
  mutable reordered : int;
}

let create ~rng profile =
  validate profile;
  let outages =
    List.filter_map
      (function Outage { start; stop } -> Some (start, stop) | _ -> None)
      profile.schedule
    |> List.sort (fun (a, _) (b, _) -> Sim.Time.compare a b)
    |> Array.of_list
  in
  let steps =
    List.filter_map
      (function Delay_step { at; extra } -> Some (at, extra) | _ -> None)
      profile.schedule
    |> List.sort (fun (a, _) (b, _) -> Sim.Time.compare a b)
    |> Array.of_list
  in
  {
    rng;
    profile;
    outages;
    steps;
    ge_bad = false;
    step_cursor = 0;
    cur_extra = Sim.Time.zero;
    random_drops = 0;
    outage_drops = 0;
    duplicates = 0;
    reordered = 0;
  }

let in_outage t now =
  (* Windows are few (a schedule holds at most a handful); a linear scan
     keeps this robust against non-monotone probes from tests. *)
  let n = Array.length t.outages in
  let rec scan i =
    if i >= n then false
    else
      let start, stop = t.outages.(i) in
      if Sim.Time.(now >= start) && Sim.Time.(now < stop) then true
      else scan (i + 1)
  in
  scan 0

let advance_steps t now =
  while
    t.step_cursor < Array.length t.steps
    && Sim.Time.(fst t.steps.(t.step_cursor) <= now)
  do
    t.cur_extra <- snd t.steps.(t.step_cursor);
    t.step_cursor <- t.step_cursor + 1
  done

(* One RNG draw per enabled mechanism per packet, in a fixed order
   (loss, reorder, duplicate), so the stream position depends only on
   the packet sequence — a prerequisite for replay. *)
let decide t ~now _pkt =
  advance_steps t now;
  if in_outage t now then begin
    t.outage_drops <- t.outage_drops + 1;
    []
  end
  else
    let lost =
      match t.profile.ge with
      | None -> false
      | Some g ->
          let loss_p = if t.ge_bad then g.loss_bad else g.loss_good in
          let lost = loss_p > 0. && Sim.Rng.float t.rng < loss_p in
          let flip_p = if t.ge_bad then g.p_bg else g.p_gb in
          if flip_p > 0. && Sim.Rng.float t.rng < flip_p then
            t.ge_bad <- not t.ge_bad;
          lost
    in
    if lost then begin
      t.random_drops <- t.random_drops + 1;
      []
    end
    else begin
      let base = t.cur_extra in
      let first =
        match t.profile.reorder with
        | Some j when j.prob > 0. && Sim.Rng.float t.rng < j.prob ->
            t.reordered <- t.reordered + 1;
            Sim.Time.add base
              (Sim.Time.scale j.max_extra (Sim.Rng.float t.rng))
        | Some _ | None -> base
      in
      match t.profile.duplicate with
      | Some j when j.prob > 0. && Sim.Rng.float t.rng < j.prob ->
          t.duplicates <- t.duplicates + 1;
          let copy =
            Sim.Time.add base
              (Sim.Time.scale j.max_extra (Sim.Rng.float t.rng))
          in
          [ first; copy ]
      | Some _ | None -> [ first ]
    end

let install t link =
  Link.set_fault_hook link (fun now pkt -> decide t ~now pkt)

let profile t = t.profile
let random_drops t = t.random_drops
let outage_drops t = t.outage_drops
let duplicates t = t.duplicates
let reordered t = t.reordered

let last_outage_end t =
  Array.fold_left
    (fun acc (_, stop) ->
      match acc with
      | None -> Some stop
      | Some best -> Some (Sim.Time.max best stop))
    None t.outages
