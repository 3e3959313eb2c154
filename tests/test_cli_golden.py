"""Golden CLI outputs: a short seeded CLI session must reproduce byte for byte.

`cli.main` trains on the figure topology with reward_skip > 0, plot curves
and a checkpoint, then runs the startup (at two window sizes), disruption
and noise evaluators, the last two from that checkpoint. Every file the
session writes is pinned by sha256 digest, so a refactor of the CLI, the
reporting or anything under it either reproduces the outputs exactly or
shows up here.
"""

import hashlib
from pathlib import Path

import yaml

from queuerl.cli import main
from queuerl.config import write_network_config
from queuerl.netsim import figure_topology

PARAMS = {
    "hidden_sizes": [8, 8],
    "batch_size": 4,
    "num_samples": 4,
    "planning_steps": 1,
    "buffer_capacity": 64,
    "num_episodes": 3,
    "num_timesteps": 10,
    "events_per_step": 40,
    "reward_skip": 8,
    "seed": 5,
}

OUTPUT_SHA256 = {
    "disruption/disruption.csv":
        "b687b0f0a0f5cfafee1b472b1f282c318c29cc51e4c2a823e29f8ebe7ebc4d1b",
    "disruption/disruption_summary.json":
        "4d441ae52e82f4952b61dce5a4a90cdf15b2ffbfcb364b42544f35f8dbbc1f3b",
    "noise/noise.csv":
        "fa3b5d97306149dfda69481c4b728d92ec296173f0a41bc68a806405218901e3",
    "noise/noise_summary.json":
        "1a2b84860f413b95ceb2a6e7e61ddec5df3f83869df5c61e714b46d694c39458",
    "plots/plot_actor_loss.csv":
        "d88fbdd1c226f8f9e17b0f20a3301cb2ec5f8e4ef029085238b2b6a6185788a4",
    "plots/plot_average_reward_episode.csv":
        "1fca0d2d81ba8fecde8542d0b81992bde98d123bf8e37dab01b90fd3f6f7f4ff",
    "plots/plot_critic_loss.csv":
        "61fccca7ad525addf23442b6b0a73ce4bad3084c6bf4a1c111d71e9883eef65a",
    "plots/plot_next_state_model_loss.csv":
        "2069a0298807fbda7472d8dd809469cd8f039d24cc8afedd7fb9315d48b1c8f3",
    "plots/plot_reward.csv":
        "5faed814de52ed0e6b5d98b7e324d615a4111748c4e25a7480d933b033589286",
    "plots/plot_reward_model_loss.csv":
        "76bdbad07e1a72215c751cad5ab46e215a78523772245cad8be113ec2527e293",
    "plots/plot_transition_proba.csv":
        "b0e9022355884d5f13bd56d400203c627ac63c1d7b845d006231751c54dd594e",
    "startup_w1/burn_in.csv":
        "3763b404266b49460fe72c8e632193f12e1c30ce3c82a6643106ecdab36c600b",
    "startup_w1/burn_in_summary.json":
        "8d04b541faf8c503b573b73db24f4ac6513d7c6e91eac9decf1d92ea191ed356",
    "startup_w3/burn_in.csv":
        "66e47b913474061b2cafe76e344f686b434a92bcd25d5b2259859aa13c9822ec",
    "startup_w3/burn_in_summary.json":
        "3a2e76bf771c8334828169e61efbcf14480777f85f9bd988a6186323c8946f0a",
    "train/avg_reward.csv":
        "1fca0d2d81ba8fecde8542d0b81992bde98d123bf8e37dab01b90fd3f6f7f4ff",
    "train/episode_modes.csv":
        "799f395a9eeaa1be62b91f63dcf71a22ebf0b10987613f17da1fbb59024e16ec",
    "train/golden.agent":
        "22f2f4fbbabd850c22d8b7024d0e16fa148f5b6e5f829da79da4f98bb9a9105c",
    "train/losses.csv":
        "b47a8f7ab9ad3c549376ba1307ac38d91298124e61b821394ab64a6380316111",
    "train/reward.csv":
        "35fd3fed9f2b80fb9606eb79de11f251dfee646b8aef3b88ef7c19a1efa34e7a",
    "train/tracker_key_states.csv":
        "88175b004d1723e44336bd29c0caec1e054112b19bc5701242998d79d818e247",
    "train/tracker_peripheral_states.csv":
        "11e601cda0ac8beb4491969464f76d455e50d42f09c331e35abfc6ef203b0d6f",
    "train/transition_proba.csv":
        "b0e9022355884d5f13bd56d400203c627ac63c1d7b845d006231751c54dd594e",
}


def _run_session(root: Path) -> None:
    net = str(root / "net.yml")
    write_network_config(figure_topology(), net)
    par = root / "params.yml"
    par.write_text(yaml.safe_dump(PARAMS))
    common = ("--config_file", net, "--param_file", str(par))
    train = root / "train"
    checkpoint = str(train / "golden.agent")
    runs = [
        ("--function", "train", "--data_file", str(train), "--image_file", str(root / "plots"),
         "--plot_curves", "True", "--save_file", "True", "--run_name", "golden"),
        ("--function", "evaluate", "--evaluator", "startup", "--data_file",
         str(root / "startup_w1"), "--window_size", "1", "--consecutive_points", "2"),
        ("--function", "evaluate", "--evaluator", "startup", "--data_file",
         str(root / "startup_w3"), "--window_size", "3", "--threshold", "0.5"),
        ("--function", "evaluate", "--evaluator", "disruption", "--agent_file", checkpoint,
         "--data_file", str(root / "disruption"), "--node", "3", "--time_steps", "8"),
        ("--function", "evaluate", "--evaluator", "noise", "--agent_file", checkpoint,
         "--data_file", str(root / "noise"), "--time_steps", "8", "--noise_variance", "0.5"),
    ]
    for argv in runs:
        assert main([*argv, *common]) == 0, argv


def _digests(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.suffix != ".yml"
    }


def test_cli_outputs_match_golden_digests(tmp_path):
    _run_session(tmp_path)
    assert _digests(tmp_path) == OUTPUT_SHA256
