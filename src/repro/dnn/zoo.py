"""Architectures of the paper's benchmark networks.

Each builder lists the network layer by layer with realistic channel counts
and spatial resolutions for a 224x224x3 input, then groups the layers into
the DARIS stages and calibrates absolute work against the profile
(:mod:`repro.dnn.profiles`).  The relative work/width distribution across
stages therefore follows the real architectures:

* **ResNet18 / ResNet50** — stem plus the four residual super-blocks; the
  paper uses exactly these four logical blocks as stages.
* **UNet** — encoder, bottleneck, decoder and segmentation head; the wide
  spatial activations make every stage broad and memory-heavy.
* **InceptionV3** — stem, Inception-A, Inception-B/C and the classifier; the
  many small parallel branches produce a large number of narrow kernels.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List

from repro.dnn.layer import LayerSpec, concat, conv2d, elementwise, linear, pool2d
from repro.dnn.model import DnnModel, calibrate_model
from repro.dnn.profiles import get_profile
from repro.gpu.spec import GpuSpec, RTX_2080_TI


def _basic_block(name: str, channels: int, spatial: int, downsample: bool) -> List[LayerSpec]:
    """ResNet basic block: two 3x3 convolutions plus the residual add."""
    stride = 2 if downsample else 1
    in_channels = channels // 2 if downsample else channels
    out_spatial = spatial // stride
    layers = [
        conv2d(f"{name}/conv1", in_channels, channels, spatial, kernel_size=3, stride=stride),
        conv2d(f"{name}/conv2", channels, channels, out_spatial, kernel_size=3),
        elementwise(f"{name}/add", channels, out_spatial),
    ]
    if downsample:
        layers.append(
            conv2d(f"{name}/downsample", in_channels, channels, spatial, kernel_size=1, stride=stride)
        )
    return layers


def _bottleneck_block(name: str, channels: int, spatial: int, downsample: bool) -> List[LayerSpec]:
    """ResNet bottleneck block (1x1 -> 3x3 -> 1x1) used by ResNet50."""
    stride = 2 if downsample else 1
    expansion = 4
    in_channels = channels * expansion if not downsample else channels * 2
    out_spatial = spatial // stride
    layers = [
        conv2d(f"{name}/conv1", in_channels, channels, spatial, kernel_size=1),
        conv2d(f"{name}/conv2", channels, channels, spatial, kernel_size=3, stride=stride),
        conv2d(f"{name}/conv3", channels, channels * expansion, out_spatial, kernel_size=1),
        elementwise(f"{name}/add", channels * expansion, out_spatial),
    ]
    if downsample:
        layers.append(
            conv2d(
                f"{name}/downsample",
                in_channels,
                channels * expansion,
                spatial,
                kernel_size=1,
                stride=stride,
            )
        )
    return layers


def build_resnet18(gpu: GpuSpec = RTX_2080_TI) -> DnnModel:
    """ResNet18, staged at the four residual super-blocks (paper Section III-B1)."""
    profile = get_profile("resnet18")
    stem = [
        conv2d("stem/conv", 3, 64, 224, kernel_size=7, stride=2),
        pool2d("stem/maxpool", 64, 112, stride=2),
    ]
    layer1 = stem + _basic_block("layer1/block1", 64, 56, False) + _basic_block(
        "layer1/block2", 64, 56, False
    )
    layer2 = _basic_block("layer2/block1", 128, 56, True) + _basic_block(
        "layer2/block2", 128, 28, False
    )
    layer3 = _basic_block("layer3/block1", 256, 28, True) + _basic_block(
        "layer3/block2", 256, 14, False
    )
    layer4 = (
        _basic_block("layer4/block1", 512, 14, True)
        + _basic_block("layer4/block2", 512, 7, False)
        + [pool2d("head/avgpool", 512, 7, stride=7), linear("head/fc", 512, 1000)]
    )
    return calibrate_model("resnet18", profile, [layer1, layer2, layer3, layer4], gpu=gpu)


def build_resnet50(gpu: GpuSpec = RTX_2080_TI) -> DnnModel:
    """ResNet50 with bottleneck blocks, staged the same way as ResNet18."""
    profile = get_profile("resnet50")
    stem = [
        conv2d("stem/conv", 3, 64, 224, kernel_size=7, stride=2),
        pool2d("stem/maxpool", 64, 112, stride=2),
    ]

    def repeat(name: str, channels: int, spatial: int, blocks: int) -> List[LayerSpec]:
        layers = _bottleneck_block(f"{name}/block1", channels, spatial, True)
        for i in range(2, blocks + 1):
            layers += _bottleneck_block(f"{name}/block{i}", channels, spatial // 2, False)
        return layers

    # The first super-block does not downsample spatially in torchvision's
    # ResNet50; modelling it with the generic helper keeps relative shapes
    # close enough for calibration.
    layer1 = stem + repeat("layer1", 64, 112, 3)
    layer2 = repeat("layer2", 128, 56, 4)
    layer3 = repeat("layer3", 256, 28, 6)
    layer4 = repeat("layer4", 512, 14, 3) + [
        pool2d("head/avgpool", 2048, 7, stride=7),
        linear("head/fc", 2048, 1000),
    ]
    return calibrate_model("resnet50", profile, [layer1, layer2, layer3, layer4], gpu=gpu)


def _double_conv(name: str, in_channels: int, out_channels: int, spatial: int) -> List[LayerSpec]:
    """UNet's characteristic double 3x3 convolution."""
    return [
        conv2d(f"{name}/conv1", in_channels, out_channels, spatial),
        conv2d(f"{name}/conv2", out_channels, out_channels, spatial),
    ]


def build_unet(gpu: GpuSpec = RTX_2080_TI) -> DnnModel:
    """UNet (4 resolution levels), staged encoder / bottleneck / decoder / head."""
    profile = get_profile("unet")
    encoder = (
        _double_conv("enc1", 3, 64, 224)
        + [pool2d("enc1/pool", 64, 224)]
        + _double_conv("enc2", 64, 128, 112)
        + [pool2d("enc2/pool", 128, 112)]
        + _double_conv("enc3", 128, 256, 56)
        + [pool2d("enc3/pool", 256, 56)]
    )
    bottleneck = (
        _double_conv("enc4", 256, 512, 28)
        + [pool2d("enc4/pool", 512, 28)]
        + _double_conv("bottleneck", 512, 1024, 14)
    )
    decoder_deep = (
        [conv2d("up4/upconv", 1024, 512, 28, kernel_size=2), concat("up4/skip", 1024, 28)]
        + _double_conv("dec4", 1024, 512, 28)
        + [conv2d("up3/upconv", 512, 256, 56, kernel_size=2), concat("up3/skip", 512, 56)]
        + _double_conv("dec3", 512, 256, 56)
    )
    decoder_shallow = (
        [conv2d("up2/upconv", 256, 128, 112, kernel_size=2), concat("up2/skip", 256, 112)]
        + _double_conv("dec2", 256, 128, 112)
        + [conv2d("up1/upconv", 128, 64, 224, kernel_size=2), concat("up1/skip", 128, 224)]
        + _double_conv("dec1", 128, 64, 224)
        + [conv2d("head/segmap", 64, 2, 224, kernel_size=1)]
    )
    return calibrate_model(
        "unet", profile, [encoder, bottleneck, decoder_deep, decoder_shallow], gpu=gpu
    )


def _inception_a(name: str, in_channels: int, spatial: int) -> List[LayerSpec]:
    """Inception-A module: four parallel branches of small convolutions."""
    return [
        conv2d(f"{name}/b1x1", in_channels, 64, spatial, kernel_size=1),
        conv2d(f"{name}/b5x5_reduce", in_channels, 48, spatial, kernel_size=1),
        conv2d(f"{name}/b5x5", 48, 64, spatial, kernel_size=5),
        conv2d(f"{name}/b3x3_reduce", in_channels, 64, spatial, kernel_size=1),
        conv2d(f"{name}/b3x3a", 64, 96, spatial, kernel_size=3),
        conv2d(f"{name}/b3x3b", 96, 96, spatial, kernel_size=3),
        pool2d(f"{name}/pool", in_channels, spatial, stride=1),
        conv2d(f"{name}/pool_proj", in_channels, 64, spatial, kernel_size=1),
        concat(f"{name}/concat", 288, spatial),
    ]


def _inception_c(name: str, in_channels: int, spatial: int) -> List[LayerSpec]:
    """Inception-C style module with factorised 7x7 convolutions."""
    return [
        conv2d(f"{name}/b1x1", in_channels, 192, spatial, kernel_size=1),
        conv2d(f"{name}/b7x7_reduce", in_channels, 128, spatial, kernel_size=1),
        conv2d(f"{name}/b1x7", 128, 128, spatial, kernel_size=1),
        conv2d(f"{name}/b7x1", 128, 192, spatial, kernel_size=7),
        conv2d(f"{name}/b7x7dbl_reduce", in_channels, 128, spatial, kernel_size=1),
        conv2d(f"{name}/b7x7dbl_a", 128, 128, spatial, kernel_size=7),
        conv2d(f"{name}/b7x7dbl_b", 128, 192, spatial, kernel_size=7),
        pool2d(f"{name}/pool", in_channels, spatial, stride=1),
        conv2d(f"{name}/pool_proj", in_channels, 192, spatial, kernel_size=1),
        concat(f"{name}/concat", 768, spatial),
    ]


def build_inceptionv3(gpu: GpuSpec = RTX_2080_TI) -> DnnModel:
    """InceptionV3: stem, Inception-A, Inception-B/C and classifier stages."""
    profile = get_profile("inceptionv3")
    stem = [
        conv2d("stem/conv1", 3, 32, 224, kernel_size=3, stride=2),
        conv2d("stem/conv2", 32, 32, 111, kernel_size=3),
        conv2d("stem/conv3", 32, 64, 111, kernel_size=3),
        pool2d("stem/pool1", 64, 111),
        conv2d("stem/conv4", 64, 80, 55, kernel_size=1),
        conv2d("stem/conv5", 80, 192, 55, kernel_size=3),
        pool2d("stem/pool2", 192, 55),
    ]
    inception_a = (
        _inception_a("mixed5b", 192, 27)
        + _inception_a("mixed5c", 288, 27)
        + _inception_a("mixed5d", 288, 27)
    )
    inception_bc = (
        [
            conv2d("mixed6a/b3x3", 288, 384, 27, kernel_size=3, stride=2),
            conv2d("mixed6a/b3x3dbl_reduce", 288, 64, 27, kernel_size=1),
            conv2d("mixed6a/b3x3dbl_a", 64, 96, 27, kernel_size=3),
            conv2d("mixed6a/b3x3dbl_b", 96, 96, 27, kernel_size=3, stride=2),
            pool2d("mixed6a/pool", 288, 27),
            concat("mixed6a/concat", 768, 13),
        ]
        + _inception_c("mixed6b", 768, 13)
        + _inception_c("mixed6c", 768, 13)
        + _inception_c("mixed6d", 768, 13)
        + _inception_c("mixed6e", 768, 13)
    )
    classifier = (
        [
            conv2d("mixed7a/b3x3_reduce", 768, 192, 13, kernel_size=1),
            conv2d("mixed7a/b3x3", 192, 320, 13, kernel_size=3, stride=2),
            conv2d("mixed7a/b7x7_reduce", 768, 192, 13, kernel_size=1),
            conv2d("mixed7a/b7x7x3", 192, 192, 13, kernel_size=7),
            pool2d("mixed7a/pool", 768, 13),
            concat("mixed7a/concat", 1280, 6),
        ]
        + _inception_a("mixed7b", 1280, 6)
        + _inception_a("mixed7c", 2048, 6)
        + [pool2d("head/avgpool", 2048, 6, stride=6), linear("head/fc", 2048, 1000)]
    )
    return calibrate_model(
        "inceptionv3", profile, [stem, inception_a, inception_bc, classifier], gpu=gpu
    )


_BUILDERS: Dict[str, Callable[[GpuSpec], DnnModel]] = {
    "resnet18": build_resnet18,
    "resnet50": build_resnet50,
    "unet": build_unet,
    "inceptionv3": build_inceptionv3,
}


def available_models() -> List[str]:
    """Names of all models in the zoo."""
    return sorted(_BUILDERS)


def build_model(name: str, gpu: GpuSpec = RTX_2080_TI) -> DnnModel:
    """The calibrated model of that name on ``gpu``.

    One model per (name, GPU): the first call calibrates it and later calls
    return the same instance, so an experiment grid calibrates each network
    once and encodes its fingerprint once
    (:attr:`~repro.dnn.model.DnnModel.fingerprint_json`).  Sharing is safe
    because a model and everything it holds (stages, profile, GPU spec) are
    frozen dataclasses with tuple fields.  The ``build_*`` functions still
    calibrate a new model on every call.
    """
    key = name.lower()
    if key not in _BUILDERS:
        raise KeyError(f"unknown model {name!r}; available: {available_models()}")
    return _calibrated(key, gpu)


@functools.lru_cache(maxsize=64)
def _calibrated(name: str, gpu: GpuSpec) -> DnnModel:
    return _BUILDERS[name](gpu)
