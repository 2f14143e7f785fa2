(** Head-to-head congestion-control arena.

    Crosses the named {!Tcp.Policy} bundles with six {!Spec} scenarios
    (the paper path, a lossy WAN, a two-flow fairness dumbbell, RED+ECN
    at the sender's queue, three parallel streams and a chaos fault
    profile) and scores the results into a league. Every cell runs at
    seed 1, so every policy faces exactly the same network, faults
    included. [rss_sim experiments arena] renders both tables through
    {!Experiments}. *)

type scenario = {
  sname : string;
  sdoc : string;  (** one-line description for CLIs *)
  make : duration:Sim.Time.t -> policy:string -> Spec.t;
}

val scenarios : scenario list
(** The arena scenarios, in cell order: [paper-path], [lossy-wan],
    [shared-bottleneck], [red-ecn], [parallel-streams],
    [chaos-bursty]. *)

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

type standing = {
  lpolicy : string;
  mean_utilization : float;  (** across the policy's scenarios *)
  mean_jain : float;
  total_stalls : int;
  total_retransmits : int;
  total_timeouts : int;
  score : float;  (** mean utilization × mean Jain — rank key *)
}

val run : ?pool:Engine.Pool.t -> duration:Sim.Time.t -> unit -> cell list
(** Every named bundle ({!Tcp.Policy.names}) on every scenario, as one
    [Spec.run_batch] over [pool] (default {!Engine.Pool.sequential}):
    policy-major cells, identical for any worker count. A failing cell
    raises {!Engine.Pool.Task_failed}. *)

val league : cell list -> standing list
(** One standing per policy, by descending score, ties by name. *)
