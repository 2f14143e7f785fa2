(** Head-to-head congestion-control arena.

    Crosses the named {!Tcp.Policy} bundles with a fixed set of
    {!Spec} scenarios (the paper path, a lossy WAN, a two-flow fairness
    dumbbell and a chaos fault profile) and scores the results into a
    league table. Each cell is an independent [Spec.run] with the same
    seed across policies, so every policy faces exactly the same
    network, faults included; the matrix fans out over a Domain pool
    and is byte-identical for any worker count ([rss_sim compare
    --matrix]). *)

type scenario = {
  sname : string;
  sdoc : string;  (** one-line description for CLIs *)
  chaos : bool;   (** true when the scenario carries fault profiles *)
  make : duration:Sim.Time.t -> seed:int -> policy:string -> Spec.t;
}

val scenarios : scenario list
(** The built-in arena scenarios, in matrix column order: [paper-path],
    [lossy-wan], [shared-bottleneck], [chaos-bursty]. *)

type cell = {
  policy : string;
  scenario : string;
  goodput_mbps : float;   (** aggregate over the scenario's TCP flows *)
  utilization : float;    (** summed per-flow utilization *)
  jain_index : float;
  send_stalls : int;      (** summed over flows, as are the rest *)
  congestion_signals : int;
  retransmits : int;
  timeouts : int;
}

type table = {
  policies : string list;
  scenarios_run : string list;
  cells : cell list;
      (** policy-major: all scenarios of the first policy, then the
          next — the CSV row order *)
}

type standing = {
  lpolicy : string;
  mean_utilization : float;  (** across the policy's scenarios *)
  mean_jain : float;
  total_stalls : int;
  total_retransmits : int;
  total_timeouts : int;
  score : float;  (** mean utilization × mean Jain — rank key *)
}

val run_collect :
  ?pool:Engine.Pool.t ->
  ?policies:string list ->
  ?scenarios:string list ->
  ?duration:Sim.Time.t ->
  ?seed:int ->
  unit ->
  table * Engine.Pool.failure list
(** Run the matrix: defaults are every named bundle
    ({!Tcp.Policy.names}), every built-in scenario, 15 s, seed 1. Cells
    run as one [Spec.run_batch] over [pool] (sequential when [None]) in
    policy-major order. Raises [Invalid_argument] on an unknown policy
    or scenario name. A poisoned cell costs one entry in the returned
    failure list (and its hole in [cells]), never the matrix: every
    healthy cell still reports, and the league (standings by descending
    score, ties by name) is scored over the cells that completed. *)

val to_csv : table -> string
(** One row per cell in [cells] order; floats use {!Report.Csv.cell}'s
    round-trip formatting, so equal runs produce byte-equal CSV. *)

val to_json : table -> Report.Json.t
(** [{policies, scenarios, cells, league}]. *)

val render : table -> string
(** Aligned plain-text matrix plus the league standings. *)
