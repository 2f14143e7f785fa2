(** Ziegler–Nichols calibration against the {e real} simulated plant.

    The plant the RSS controller sees: input = commanded sender window
    (segments), output = sender IFQ occupancy (packets), with the pipe's
    BDP as an offset and one RTT of transport delay. This module wraps a
    live simulation as a [Control]-compatible step function so the
    ultimate-gain experiment of the paper's §3 can be replayed
    programmatically (experiment E0 / bench e6). *)

val sim_plant :
  ?seed:int ->
  ?rate:Sim.Units.rate ->
  ?one_way_delay:Sim.Time.t ->
  ?ifq_capacity:int ->
  unit ->
  unit ->
  dt:float ->
  u:float ->
  float
(** [sim_plant () ()] builds a fresh scenario with a saturating sender
    whose window tracks the commanded input, and returns its step
    function: advance the simulation by [dt] seconds with window [u]
    (segments) and read back the IFQ occupancy (packets). Code reaches
    it through {!ultimate_gain}; the [core] test "calibration plant
    responds" drives it directly. *)

val ultimate_gain :
  ?rate:Sim.Units.rate ->
  ?one_way_delay:Sim.Time.t ->
  ?ifq_capacity:int ->
  ?setpoint_fraction:float ->
  unit ->
  (Control.Ziegler_nichols.result, string) result
(** Run the ZN sweep+bisection on the simulated plant (dt 5 ms, 12 s
    episodes). *)

