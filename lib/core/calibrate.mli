(** Ziegler–Nichols calibration against the {e real} simulated plant.

    The plant the RSS controller sees: input = commanded sender window
    (segments), output = sender IFQ occupancy (packets), with the pipe's
    BDP as an offset and one RTT of transport delay. This module wraps a
    live simulation of the paper's path (100 Mbit/s, 60 ms RTT,
    100-packet IFQ) as a [Control]-compatible step function so the
    ultimate-gain experiment of the paper's §3 can be replayed
    programmatically (experiment E6). *)

val sim_plant : unit -> dt:float -> u:float -> float
(** [sim_plant ()] builds a fresh scenario with a saturating sender
    whose window tracks the commanded input, and returns its step
    function: advance the simulation by [dt] seconds with window [u]
    (segments) and read back the IFQ occupancy (packets). Code reaches
    it through {!ultimate_gain}; the [core] test "calibration plant
    responds" drives it directly. *)

val ultimate_gain : unit -> (Control.Ziegler_nichols.result, string) result
(** Run the ZN sweep+bisection on the simulated plant around the
    restricted controller's default set point, 90 % of the IFQ (dt
    5 ms, 12 s episodes). *)
